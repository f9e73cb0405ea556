//! Sample statistics. A percentile is only reported when at least
//! [`MIN_TAIL`] samples lie beyond it; otherwise the reporter refuses.

use gage_obs::Histogram;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL: u64 = 10;

/// Median of `values` (the mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Samples strictly beyond the nearest-rank `q` quantile of `count` samples.
fn tail(count: u64, q: f64) -> u64 {
    count - ((q * count as f64).ceil() as u64).clamp(1, count.max(1))
}

fn check_tail(count: u64, q: f64) -> Result<(), String> {
    if count == 0 || tail(count, q) < MIN_TAIL {
        return Err(format!(
            "p{} needs {MIN_TAIL} samples beyond it; {count} samples leave {}",
            q * 100.0,
            if count == 0 { 0 } else { tail(count, q) }
        ));
    }
    Ok(())
}

/// Nearest-rank `q` quantile of `samples`, refused when fewer than
/// [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let count = samples.len() as u64;
    check_tail(count, q)?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * count as f64).ceil() as usize).max(1);
    Ok(v[rank - 1])
}

/// [`Histogram::quantile`] under the same refusal rule.
pub fn hist_quantile(h: &Histogram, q: f64) -> Result<f64, String> {
    check_tail(h.count(), q)?;
    Ok(h.quantile(q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: p99 is rank 990, leaving 9 beyond it.
        assert!(percentile(&samples, 0.99).is_err());
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Ok(990.0));
        assert_eq!(percentile(&samples, 0.5), Ok(500.0));
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&[1.0; 19], 0.5).is_err());
        assert_eq!(percentile(&[1.0; 20], 0.5), Ok(1.0));
    }

    #[test]
    fn histogram_quantile_uses_the_same_rule() {
        let mut h = Histogram::default();
        for i in 0..500 {
            h.observe(f64::from(i % 7) + 1.0);
        }
        assert!(hist_quantile(&h, 0.99).is_err());
        assert!(hist_quantile(&h, 0.95).is_ok());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
