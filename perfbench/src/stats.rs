//! Order statistics and process figures shared by every workload.

/// Median of `xs` (mean of the middle pair for even lengths); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `xs` with at least [`TAIL_BEYOND`] samples
/// beyond it: `(value, percentile in 0..100, sample count)`. `None` when
/// there are too few samples for any such percentile.
pub fn tail(xs: &[f64]) -> Option<(f64, f64, usize)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let idx = n - TAIL_BEYOND - 1;
    let pct = 100.0 * (idx + 1) as f64 / n as f64;
    Some((v[idx], pct, n))
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&xs).expect("100 samples have a tail");
        assert_eq!(n, 100);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        assert!((pct - 90.0).abs() < 1e-9);
        assert!(tail(&xs[..10]).is_none());
    }
}
