//! Order statistics the benchmark reports: medians, quartiles, and the
//! tail percentile a sample count can support.

/// The median of `values` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The three cut points dividing `values` into quarters, computed as
/// Python's `statistics.quantiles(values, n=4)` does (its default
/// `exclusive` method). `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(values);
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let n = 4usize;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..n) {
        // j = floor(i * (len + 1) / n), clamped to [1, len - 1].
        let j = (i * (len + 1) / n).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * n) as f64;
        *slot = (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64;
    }
    Some(cuts)
}

/// The nearest-rank `q`-quantile of `values` (`0 < q < 1`), refused unless
/// at least `min_beyond` samples lie strictly above its rank: a tail
/// percentile is only reported when enough samples back it.
///
/// # Errors
///
/// A message naming the sample count needed when `values` is too short.
pub fn tail_percentile(values: &[f64], q: f64, min_beyond: usize) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let sorted = sorted(values);
    let n = sorted.len();
    // Nearest rank: the smallest rank r with r >= q * n (1-based).
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < min_beyond {
        return Err(format!(
            "p{:.0} needs at least {min_beyond} samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
