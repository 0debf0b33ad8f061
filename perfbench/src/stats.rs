//! Order statistics over recorded samples.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of sorted samples; 0 for
/// an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// Mean of the middle of the samples: the lowest and highest fifth are
/// dropped first. Across sub-windows it ignores a burst of outside load
/// like a median, yet averages over thread placements, which a median of a
/// two-mode sample does not.
pub fn central_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let trim = sorted.len() / 5;
    let middle = &sorted[trim..sorted.len() - trim];
    middle.iter().sum::<f64>() / middle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        v[9] = 1000.0;
        assert_eq!(central_mean(&v), 5.5, "drops two from each end of ten");
        assert_eq!(central_mean(&[2.0, 4.0]), 3.0);
        assert_eq!(central_mean(&[]), 0.0);
    }
}
