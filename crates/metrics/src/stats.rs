//! Statistical helpers: the paper aggregates per-class results with the
//! geometric mean (§5).

/// Geometric mean of positive values. Panics on empty input or
/// non-positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean requires positive values"
    );
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    values.iter().sum::<f64>() / values.len() as f64
}

/// Minimum (panics on empty).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum (panics on empty — returns −∞ which trips the assert).
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_known_value() {
        // gm(1, 4) = 2.
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_below_arithmetic_mean() {
        let v = [0.5, 1.0, 2.0, 4.0];
        assert!(geomean(&v) < mean(&v));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn min_max_simple() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(min(&v), 1.0);
        assert_eq!(max(&v), 3.0);
    }
}
