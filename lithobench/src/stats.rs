//! Summary statistics and the in-memory span recorder.
//!
//! Everything here is pure so the rules the benchmark reports by — the
//! tail-percentile rule, medians and quartiles, span self time and the
//! reconciliation residual — are unit-tested on their own.

use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First quartile, median and third quartile by the "exclusive" method
/// (the default of Python's `statistics.quantiles(xs, n=4)`), so the
/// spreads printed here match the ones a reader computes from the
/// per-run results. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |j: usize| {
        // Position (n + 1) · j / 4 in 1-based ranks; the bracketing pair
        // is clamped to the ends, so tiny samples extrapolate.
        let m = (n + 1) as f64 * j as f64 / 4.0;
        let lo = (m.floor() as usize).clamp(1, n - 1);
        let frac = m - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Some((q(1), q(2), q(3)))
}

/// A tail latency chosen by the rule "the highest percentile with at
/// least ten samples beyond it".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50..=99).
    pub percentile: u32,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Number of samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
}

/// Samples required beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. Returns the value and its 1-based rank.
fn nearest_rank(sorted: &[f64], p: u32) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p as usize * n).div_ceil(100)).clamp(1, n);
    (sorted[rank - 1], rank)
}

/// The highest integer percentile in `50..=99` whose nearest-rank sample
/// has at least [`TAIL_MIN_BEYOND`] samples beyond it. Runs with fewer
/// than twenty samples have no such percentile; they report the median
/// and say how few samples lie beyond it, so the figure is never a
/// tail read off a handful of points.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let pick = (50..=99u32)
        .rev()
        .map(|p| (p, nearest_rank(&v, p)))
        .find(|&(_, (_, rank))| n - rank >= TAIL_MIN_BEYOND);
    let (percentile, (value, rank)) = pick.unwrap_or_else(|| (50, nearest_rank(&v, 50)));
    Some(Tail {
        percentile,
        value,
        beyond: n - rank,
        count: n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.cgan.predict`.
    pub name: &'static str,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Operation the span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder: spans are kept until the run ends, then
/// summarised. Nesting follows the open-span stack.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Recorder {
    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Times `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an interval measured elsewhere (e.g. a stage time a
    /// library reports) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns + dur_ns,
            op: self.op,
        });
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Median duration in milliseconds of spans named `name`.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        median(&self.durations_ms(name))
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover. Overlapping children (parallel work) count
/// once, and coverage is clipped to the parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Reconciliation residual: the part of a whole not explained by its
/// measured parts, as a percentage of the whole. Negative when the parts
/// add up to more than the whole (measurement noise or overlap).
pub fn residual_pct(whole: f64, parts: &[f64]) -> f64 {
    if whole == 0.0 {
        return 0.0;
    }
    (whole - parts.iter().sum::<f64>()) / whole * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&ramp(4)), Some((1.25, 2.5, 3.75)));
        // Two values extrapolate past the ends, as Python does.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 is rank 90, ten beyond.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.count),
            (90, 90.0, 10, 100)
        );
        // 1000 samples: p99 leaves exactly ten beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99, 990.0, 10));
        // 50 samples: p80 is rank 40, ten beyond; p81 would leave 9.
        let t = tail(&ramp(50)).unwrap();
        assert_eq!((t.percentile, t.beyond), (80, 10));
        // Exactly 20 samples: the median is the only candidate.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.beyond), (50, 10));
    }

    #[test]
    fn tail_of_a_short_run_falls_back_to_the_median() {
        let t = tail(&[5.0, 1.0, 3.0, 4.0, 2.0, 6.0]).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond, t.count), (50, 3.0, 3, 6));
        assert_eq!(tail(&[]), None);
    }

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: end,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 80),
            span("a.inner", Some(1), 15, 25),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 40, 90),
            span("late", Some(0), 95, 130),
        ];
        // Covered: [10, 90) and [95, 100) = 85 ns.
        assert_eq!(self_times_ns(&spans)[0], 15);
    }

    #[test]
    fn recorder_nests_and_stamps_ops() {
        let mut r = Recorder::default();
        r.set_op(7);
        r.span("op", |r| {
            r.span("part", |_| ());
            r.record("stage", r.now_ns(), 1_000);
        });
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|s| s.op == 7));
        assert_eq!(r.durations_ms("stage"), vec![0.001]);
        assert!(s[0].end_ns >= s[1].end_ns);
    }

    #[test]
    fn residual_is_the_unexplained_share() {
        assert_eq!(residual_pct(100.0, &[60.0, 30.0]), 10.0);
        assert_eq!(residual_pct(100.0, &[60.0, 50.0]), -10.0);
        assert_eq!(residual_pct(0.0, &[1.0]), 0.0);
        // Self time of the parent span is the same residual, in ns.
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 0, 60),
            span("b", Some(0), 60, 90),
        ];
        let own = self_times_ns(&spans)[0] as f64;
        assert_eq!(own / 100.0 * 100.0, residual_pct(100.0, &[60.0, 30.0]));
    }
}
