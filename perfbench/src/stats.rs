//! Order statistics over measured samples.

/// The median (mean of the middle pair for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The tail of a latency sample: the highest of the usual percentiles that
/// still has at least ten samples beyond it, as (percentile, value),
/// nearest-rank. `None` with fewer than twenty samples (not even the
/// median has ten beyond it).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0].into_iter().find_map(|p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(tail(&[1.0; 19]).is_none());
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
    }
}
