//! Statistics helpers: percentiles, optimality gaps, latency ratios and
//! metric-name validation. Pure functions, tested below.

/// A nearest-rank percentile together with the number of samples it was
/// taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at rank `ceil(q · n)` (1-based) of the sorted samples.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `samples`; `None` when there
/// are no samples.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(Percentile {
        value: sorted[rank.clamp(1, sorted.len()) - 1],
        samples: sorted.len(),
    })
}

/// Fewest samples a p90 is reported from: below this, ten samples do not
/// lie beyond it and the "p90" would just be one of the slowest answers.
pub const P90_MIN_SAMPLES: usize = 100;

/// The p90 of `samples`, or `None` below [`P90_MIN_SAMPLES`].
#[must_use]
pub fn p90(samples: &[f64]) -> Option<Percentile> {
    if samples.len() < P90_MIN_SAMPLES {
        return None;
    }
    percentile(samples, 0.9)
}

/// Relative optimality gap `(incumbent − bound) / |incumbent|` of a
/// minimization, clamped to `[0, 1]`.
///
/// Exactly 0 when `proven`. An answer without a bound (a heuristic
/// fallback) has gap 1. A zero incumbent cannot be beaten by a
/// non-negative objective, so its gap is 0 unless the bound lies above it,
/// which only a broken solver reports (gap 1). Ratio-valued incumbents
/// (OBJ-DEL's `max λ/T`) need nothing special: the gap is scale-free.
#[must_use]
pub fn gap(proven: bool, incumbent: Option<f64>, bound: Option<f64>) -> f64 {
    if proven {
        return 0.0;
    }
    let (Some(incumbent), Some(bound)) = (incumbent, bound) else {
        return 1.0;
    };
    if incumbent.abs() < f64::EPSILON {
        return if bound <= incumbent + f64::EPSILON {
            0.0
        } else {
            1.0
        };
    }
    ((incumbent - bound) / incumbent.abs()).clamp(0.0, 1.0)
}

/// Mean over tasks of `proposed λ / baseline λ`, from `(proposed,
/// baseline)` latency pairs in nanoseconds. Tasks whose baseline latency
/// is 0 (nothing to acquire) carry no ratio and are skipped; `None` when
/// no task is left.
#[must_use]
pub fn latency_ratio_mean(pairs: impl IntoIterator<Item = (u64, u64)>) -> Option<f64> {
    let (sum, n) = pairs
        .into_iter()
        .filter(|&(_, baseline)| baseline > 0)
        .fold((0.0, 0usize), |(sum, n), (proposed, baseline)| {
            (sum + proposed as f64 / baseline as f64, n + 1)
        });
    (n > 0).then(|| sum / n as f64)
}

/// Median of `samples` by nearest rank (`None` when empty).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5).map(|p| p.value)
}

/// Arithmetic mean (`0` when empty).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0 (a rate over no work).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Checks that a metric name is 1–64 characters of `[A-Za-z0-9_.-]`
/// starting with a letter or digit, and that its unit is 1–16 characters
/// of `[A-Za-z0-9_/%.-]`.
///
/// # Errors
///
/// A description of the first rule broken.
pub fn validate_metric(name: &str, unit: &str) -> Result<(), String> {
    let name_ok = (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
    if !name_ok {
        return Err(format!("metric name `{name}` is not [A-Za-z0-9_.-]+"));
    }
    let unit_ok = (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'));
    if !unit_ok {
        return Err(format!("metric `{name}` has no valid unit (`{unit}`)"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(
            percentile(&xs, 0.5),
            Some(Percentile {
                value: 3.0,
                samples: 5
            })
        );
        assert_eq!(percentile(&xs, 1.0).unwrap().value, 5.0);
        assert_eq!(percentile(&xs, 0.01).unwrap().value, 1.0);
        // Even count: the lower middle sample, never an interpolation.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9).unwrap().value, 90.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&few), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            p90(&enough),
            Some(Percentile {
                value: 90.0,
                samples: 100
            })
        );
    }

    #[test]
    fn gap_is_exactly_zero_when_proven() {
        assert_eq!(gap(true, Some(14.0), Some(3.5)), 0.0);
        assert_eq!(gap(true, None, None), 0.0);
    }

    #[test]
    fn gap_of_an_open_search() {
        assert_eq!(gap(false, Some(14.0), Some(3.5)), 0.75);
        // OBJ-DEL: ratio-valued incumbent and bound.
        let g = gap(false, Some(0.032), Some(0.008));
        assert!((g - 0.75).abs() < 1e-12);
        // A bound at the incumbent closes the gap even without the proof.
        assert_eq!(gap(false, Some(12.0), Some(12.0)), 0.0);
        // No bound (heuristic fallback): nothing is known.
        assert_eq!(gap(false, Some(12.0), None), 1.0);
        assert_eq!(gap(false, None, Some(1.0)), 1.0);
        // Negative bounds clamp to a full gap.
        assert_eq!(gap(false, Some(2.0), Some(-5.0)), 1.0);
    }

    #[test]
    fn gap_with_a_zero_incumbent() {
        assert_eq!(gap(false, Some(0.0), Some(0.0)), 0.0);
        assert_eq!(gap(false, Some(0.0), Some(-1.0)), 0.0);
        assert_eq!(gap(false, Some(0.0), Some(0.5)), 1.0);
    }

    #[test]
    fn latency_ratio_skips_zero_baselines() {
        assert_eq!(latency_ratio_mean([(50, 100), (300, 100)]), Some(1.75));
        assert_eq!(latency_ratio_mean([(50, 100), (7, 0)]), Some(0.5));
        assert_eq!(latency_ratio_mean([(7, 0)]), None);
        assert_eq!(latency_ratio_mean(std::iter::empty()), None);
    }

    #[test]
    fn ratio_and_mean_of_nothing() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn metric_names_and_units() {
        assert!(validate_metric("answer_s_p50", "s").is_ok());
        assert!(validate_metric("milp.us_per_iter", "us").is_ok());
        assert!(validate_metric("sim.events_per_s", "1/s").is_ok());
        assert!(validate_metric("trace.overhead", "ratio").is_ok());
        assert!(validate_metric("", "s").is_err());
        assert!(validate_metric(".hidden", "s").is_err());
        assert!(validate_metric("bad name", "s").is_err());
        assert!(validate_metric("λ_ratio", "s").is_err());
        assert!(validate_metric(&"x".repeat(65), "s").is_err());
        assert!(validate_metric("wall_s", "").is_err());
        assert!(validate_metric("wall_s", "sec onds").is_err());
    }
}
