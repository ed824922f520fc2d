//! Order statistics over raw samples.

/// The nearest-rank `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, which must be
/// sorted ascending.  `None` when there are no samples.
pub fn quantile_sorted<T: Copy>(samples: &[T], q: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Sorts `samples` in place and returns its `q`-quantile (0 when empty).
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    quantile_sorted(samples, q).unwrap_or(0)
}

/// Signed counterpart of [`quantile`] (0 when empty).
pub fn quantile_i64(samples: &mut [i64], q: f64) -> i64 {
    samples.sort_unstable();
    quantile_sorted(samples, q).unwrap_or(0)
}

/// The median of `values` (0 when empty).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5).unwrap_or(0.0)
}

/// How many samples lie strictly above the `q`-quantile of a sorted set:
/// the support behind a reported percentile.
pub fn beyond_sorted(samples: &[u64], q: f64) -> usize {
    match quantile_sorted(samples, q) {
        Some(cut) => samples.len() - samples.partition_point(|&s| s <= cut),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut v, 1.0), 100);
        assert_eq!(quantile(&mut v, 0.0), 1);
        assert_eq!(beyond_sorted(&v, 0.99), 1);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile_i64(&mut [-5, 3, -1], 0.5), -1);
    }
}
