//! Order statistics over timing samples.

/// The `q`-quantile (`0.0 ..= 1.0`) of ascending `sorted` samples, with
/// linear interpolation between the two closest ranks.
///
/// Panics on an empty slice: every caller takes at least one sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Five-number summary plus the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            q1: percentile(&sorted, 0.25),
            median: percentile(&sorted, 0.5),
            q3: percentile(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
        }
    }
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_vectors() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
        // Even count: the median interpolates the two middle samples.
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0], 0.5), 25.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 1..=100: p90 sits 90 % of the way along 99 gaps.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 0.9) - 90.1).abs() < 1e-9);
        assert!((percentile(&hundred, 0.99) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!((s.q1, s.q3), (2.0, 4.0));
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }
}
