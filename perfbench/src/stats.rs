//! Order statistics over timing samples.

/// Linear-interpolated percentile (`q` in 0..=1) of `samples`; `NaN` when
/// there are none. Infinite samples (refused requests) sort last.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    if frac == 0.0 {
        return v[lo];
    }
    if v[lo + 1].is_infinite() {
        return v[lo + 1];
    }
    v[lo] + (v[lo + 1] - v[lo]) * frac
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Number of samples strictly above the `q` percentile: a percentile is
/// reported with the count of samples beyond it, so a reader can tell a
/// tail estimate from a guess.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let p = percentile(samples, q);
    samples.iter().filter(|&&s| s > p).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_keep_refusals_last() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        let refused = [1.0, 2.0, f64::INFINITY];
        assert_eq!(percentile(&refused, 1.0), f64::INFINITY);
        assert_eq!(median(&refused), 2.0);
        assert_eq!(beyond(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 2);
    }
}
