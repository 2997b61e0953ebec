//! Reporting helpers: throughput, speedups, and the summary statistics
//! quoted in Section 5.1.

use cfmerge_json::json_struct;

/// Why a reporting helper could not produce a number. Earlier revisions
/// silently emitted `0.0` for these cases, which poisoned downstream
/// averages; now the caller decides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricsError {
    /// A speedup summary over zero points.
    EmptySeries,
    /// Paired series of different lengths.
    MismatchedLengths {
        /// Points in the baseline series.
        baseline: usize,
        /// Points in the improved series.
        improved: usize,
    },
    /// A throughput over a zero, negative, or non-finite duration.
    NonPositiveSeconds {
        /// The offending duration.
        seconds: f64,
    },
}

impl std::fmt::Display for MetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricsError::EmptySeries => write!(f, "empty series: need at least one point"),
            MetricsError::MismatchedLengths { baseline, improved } => {
                write!(
                    f,
                    "paired series required: {baseline} baseline vs {improved} improved points"
                )
            }
            MetricsError::NonPositiveSeconds { seconds } => {
                write!(f, "non-positive duration: {seconds} s")
            }
        }
    }
}

impl std::error::Error for MetricsError {}

/// Throughput in elements per microsecond — the unit of Figures 5 and 6.
///
/// # Errors
/// [`MetricsError::NonPositiveSeconds`] when `seconds` is zero, negative,
/// or not finite (a zero-duration "run" has no throughput; reporting
/// `0.0` would silently drag down sweep averages).
pub fn elements_per_us(n: usize, seconds: f64) -> Result<f64, MetricsError> {
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(MetricsError::NonPositiveSeconds { seconds });
    }
    Ok(n as f64 / (seconds * 1e6))
}

/// One data point of a throughput series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Input size.
    pub n: usize,
    /// Simulated runtime in seconds.
    pub seconds: f64,
    /// Throughput in elements/µs.
    pub elems_per_us: f64,
}

impl ThroughputPoint {
    /// Build a point from `n` and a runtime.
    ///
    /// # Errors
    /// [`MetricsError::NonPositiveSeconds`] on a zero/negative/non-finite
    /// runtime.
    pub fn new(n: usize, seconds: f64) -> Result<Self, MetricsError> {
        Ok(Self { n, seconds, elems_per_us: elements_per_us(n, seconds)? })
    }
}

json_struct! { ThroughputPoint { n, seconds, elems_per_us } }

/// The speedup summary the paper reports for Figure 5: "average, mean, and
/// maximum speedup" over the sweep (the paper's "average" is the ratio of
/// summed runtimes — i.e. total-work speedup — while "mean" is the mean of
/// per-size speedups).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupSummary {
    /// Σ baseline time / Σ improved time.
    pub average: f64,
    /// Mean of pointwise speedups.
    pub mean: f64,
    /// Largest pointwise speedup.
    pub max: f64,
    /// Smallest pointwise speedup.
    pub min: f64,
}

json_struct! { SpeedupSummary { average, mean, max, min } }

/// Summarize baseline-vs-improved runtimes (paired by index).
///
/// # Errors
/// [`MetricsError::MismatchedLengths`] when the series pair unevenly,
/// [`MetricsError::EmptySeries`] on zero points, and
/// [`MetricsError::NonPositiveSeconds`] when any runtime is zero,
/// negative, or non-finite (the ratios would be meaningless).
pub fn speedup_summary(
    baseline_s: &[f64],
    improved_s: &[f64],
) -> Result<SpeedupSummary, MetricsError> {
    if baseline_s.len() != improved_s.len() {
        return Err(MetricsError::MismatchedLengths {
            baseline: baseline_s.len(),
            improved: improved_s.len(),
        });
    }
    if baseline_s.is_empty() {
        return Err(MetricsError::EmptySeries);
    }
    if let Some(&seconds) =
        baseline_s.iter().chain(improved_s).find(|s| !(**s > 0.0 && s.is_finite()))
    {
        return Err(MetricsError::NonPositiveSeconds { seconds });
    }
    let total_base: f64 = baseline_s.iter().sum();
    let total_impr: f64 = improved_s.iter().sum();
    let ratios: Vec<f64> = baseline_s.iter().zip(improved_s).map(|(b, i)| b / i).collect();
    Ok(SpeedupSummary {
        average: total_base / total_impr,
        mean: ratios.iter().sum::<f64>() / ratios.len() as f64,
        max: ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        min: ratios.iter().cloned().fold(f64::INFINITY, f64::min),
    })
}

/// Format a simple aligned text table (the bench binaries print these;
/// EXPERIMENTS.md embeds them).
#[must_use]
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{c:>width$}", width = widths[i]));
        }
        line
    };
    let hdr: Vec<String> = headers.iter().map(|s| (*s).to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_units() {
        // 1e6 elements in 1 ms = 1000 elements/µs.
        assert!((elements_per_us(1_000_000, 1e-3).unwrap() - 1000.0).abs() < 1e-9);
        let p = ThroughputPoint::new(2_000_000, 1e-3).unwrap();
        assert!((p.elems_per_us - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn non_positive_seconds_are_typed_errors() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(elements_per_us(100, bad), Err(MetricsError::NonPositiveSeconds { .. })),
                "expected typed error for {bad}"
            );
            assert!(ThroughputPoint::new(100, bad).is_err());
        }
    }

    #[test]
    fn speedup_summary_math() {
        let base = [2.0, 3.0, 4.0];
        let imp = [1.0, 3.0, 2.0];
        let s = speedup_summary(&base, &imp).unwrap();
        assert!((s.average - 9.0 / 6.0).abs() < 1e-12);
        assert!((s.mean - (2.0 + 1.0 + 2.0) / 3.0).abs() < 1e-12);
        assert!((s.max - 2.0).abs() < 1e-12);
        assert!((s.min - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_speedup_inputs_are_typed_errors() {
        assert_eq!(
            speedup_summary(&[1.0], &[1.0, 2.0]),
            Err(MetricsError::MismatchedLengths { baseline: 1, improved: 2 })
        );
        assert_eq!(speedup_summary(&[], &[]), Err(MetricsError::EmptySeries));
        assert_eq!(
            speedup_summary(&[1.0], &[0.0]),
            Err(MetricsError::NonPositiveSeconds { seconds: 0.0 })
        );
        // The errors render human-readably for bench-bin diagnostics.
        assert!(MetricsError::EmptySeries.to_string().contains("empty series"));
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["n", "thrust", "cf"],
            &[
                vec!["1024".into(), "12.5".into(), "12.4".into()],
                vec!["2048".into(), "13.0".into(), "13.1".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("thrust"));
        assert!(lines[2].trim_start().starts_with("1024"));
    }
}
