//! Summaries of timing samples.

/// Nearest-rank percentile `p` (in `0..1`) of `sorted`, reported only
/// when at least ten samples lie beyond it: a tail figure read off fewer
/// samples is noise. `sorted` must be ascending.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n - rank.min(n) < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The median of a handful of repeats (no tail rule: it is not a
/// percentile of a request stream).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Ascending copy of `values`.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0)); // exactly ten beyond
        assert_eq!(percentile(&v, 0.99), None); // one beyond
        let w: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.9), None); // nine beyond
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&k, 0.99), Some(990.0));
        assert_eq!(percentile(&[1.0; 19], 0.5), None);
        assert_eq!(percentile(&[1.0; 20], 0.5), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
