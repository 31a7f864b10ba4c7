//! Order statistics over latency samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Geometric mean of strictly positive samples; 0 for an empty sample.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|v| v.ln()).sum::<f64>() / samples.len() as f64).exp()
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Nanoseconds as milliseconds.
pub fn ms(nanos: f64) -> f64 {
    nanos / 1e6
}

/// Nanoseconds as microseconds.
pub fn us(nanos: f64) -> f64 {
    nanos / 1e3
}

/// `num / den`, 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_weights_ratios_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
