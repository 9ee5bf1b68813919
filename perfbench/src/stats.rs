//! Order statistics.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `values` (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median; the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `n`, minimum, median and maximum, for logs.
pub fn summary(values: &[f64]) -> String {
    let sorted = sorted(values);
    match (sorted.first(), sorted.last()) {
        (Some(min), Some(max)) => format!(
            "n={} min/median/max {min:.4}/{:.4}/{max:.4}",
            sorted.len(),
            median(&sorted)
        ),
        _ => "n=0".to_string(),
    }
}
