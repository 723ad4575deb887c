//! The one regression decision behind every gate: `compare --gate`,
//! `runs trend` (and through it the dash and alert drift state),
//! `runs diff-eval` and `perf_gate` all take a metric's direction, its
//! regressed/within/improved verdict and their medians from here.

/// Suffix of achieved-GFLOP/s bench metrics; higher is better.
pub const GFLOPS_SUFFIX: &str = "_gflops";
/// Suffix of worker-pool-utilization bench metrics; higher is better.
pub const UTIL_SUFFIX: &str = "_util";

/// Is a larger value of this metric an improvement? True for the
/// accuracies and IoU, throughput, pool utilization and the
/// `_gflops`/`_util` bench rates; everything else (error distances, wall
/// clock, memory, bench times) is lower-is-better. Slice-qualified keys
/// (`ede_mean_nm{family=chain1d}`) follow their base metric.
pub fn higher_is_better(key: &str) -> bool {
    let base = crate::index::split_slice_key(key).map_or(key, |(metric, _)| metric);
    matches!(
        base,
        "pixel_accuracy" | "class_accuracy" | "mean_iou" | "samples_per_sec" | "pool_utilization"
    ) || base.ends_with(GFLOPS_SUFFIX)
        || base.ends_with(UTIL_SUFFIX)
}

/// Where a value sits against its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regressed,
    Within,
    Improved,
}

/// Judges `value` against `reference` with a slack of
/// `|reference| × tol_pct / 100 + f64::EPSILON` on both sides (a negative
/// `tol_pct` counts as 0, so an unchanged value is always within). A NaN
/// value regresses: a poisoned value is never within tolerance.
pub fn verdict(value: f64, reference: f64, tol_pct: f64, higher_is_better: bool) -> Verdict {
    let slack = reference.abs() * tol_pct.max(0.0) / 100.0 + f64::EPSILON;
    let worse_by = if higher_is_better { reference - value } else { value - reference };
    if worse_by.is_nan() || worse_by > slack {
        Verdict::Regressed
    } else if worse_by < -slack {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// Median of `values`, the midpoint for an even count; `None` when empty.
pub fn median(mut values: Vec<f64>) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(values[n / 2]),
        _ => Some(0.5 * (values[n / 2 - 1] + values[n / 2])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_is_direction_aware_and_clamps_negative_tolerance() {
        for hib in [true, false] {
            // At tol 0 an unchanged value passes; a negative tol acts as 0.
            for tol in [0.0, -5.0] {
                assert_eq!(verdict(6.5, 6.5, tol, hib), Verdict::Within);
            }
            assert_eq!(verdict(6.6, 6.5, -50.0, hib), verdict(6.6, 6.5, 0.0, hib));
            assert_eq!(verdict(f64::NAN, 10.0, 50.0, hib), Verdict::Regressed);
        }
        assert_eq!(verdict(11.5, 10.0, 10.0, false), Verdict::Regressed);
        assert_eq!(verdict(8.5, 10.0, 10.0, false), Verdict::Improved);
        assert_eq!(verdict(8.5, 10.0, 10.0, true), Verdict::Regressed);
        assert_eq!(verdict(10.9, 10.0, 10.0, true), Verdict::Within);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(vec![3.0, 1.0]), Some(2.0));
        assert_eq!(median(Vec::new()), None);
    }
}
