//! Cross-run per-clip regression triage: `runs diff-eval <run-a> <run-b>`.
//!
//! Joins two runs' `samples.jsonl` streams by clip fingerprint and
//! buckets every shared clip by how its EDE moved from run A (the
//! reference) to run B (the candidate): *regressed* beyond tolerance,
//! *improved* beyond tolerance, or unchanged. Clips evaluated by only
//! one run land in *new* / *missing*. This is the sample-level
//! counterpart of the aggregate `compare` gate — a handful of clips can
//! regress badly while the fleet mean stays flat, and only a
//! fingerprint join can say which ones.

use std::fmt::Write as _;

use litho_metrics::SampleRecord;

use crate::verdict::{higher_is_better, verdict, Verdict};

/// One joined clip in a [`DiffEval`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    pub fingerprint: String,
    /// Family tag (from run B when the runs disagree; they shouldn't).
    pub family: Option<String>,
    /// EDE in run A, `None` when the clip printed no contour there.
    pub ede_a_nm: Option<f64>,
    /// EDE in run B, `None` when the clip printed no contour there.
    pub ede_b_nm: Option<f64>,
    /// Relative change B vs A, percent; `None` when either side has no
    /// EDE or A is zero (absent, never NaN).
    pub delta_pct: Option<f64>,
}

/// Outcome of joining two runs by clip fingerprint.
#[derive(Debug, Clone, Default)]
pub struct DiffEval {
    pub run_a: String,
    pub run_b: String,
    /// Allowed relative EDE growth before a clip counts as regressed, %.
    pub tol_pct: f64,
    /// Shared clips whose EDE grew beyond tolerance (or whose contour
    /// vanished in B), worst first.
    pub regressed: Vec<DiffEntry>,
    /// Shared clips whose EDE shrank beyond tolerance (or whose contour
    /// appeared in B), best first.
    pub improved: Vec<DiffEntry>,
    /// Shared clips within tolerance.
    pub unchanged: usize,
    /// Clips only run B evaluated.
    pub new: Vec<DiffEntry>,
    /// Clips only run A evaluated.
    pub missing: Vec<DiffEntry>,
    /// Records without a clip fingerprint on each side (legacy ledgers);
    /// they cannot be joined and are excluded from every bucket.
    pub unidentified_a: usize,
    pub unidentified_b: usize,
}

impl DiffEval {
    /// The `--gate` verdict: fails iff any shared clip regressed.
    pub fn gate_passed(&self) -> bool {
        self.regressed.is_empty()
    }
}

fn delta_pct(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(a), Some(b)) if a != 0.0 => Some((b - a) / a * 100.0),
        _ => None,
    }
}

/// Joins two runs' sample records by clip fingerprint. `tol_pct` is the
/// allowed relative EDE growth (and shrinkage, for the improved bucket).
pub fn diff_eval(
    run_a: &str,
    records_a: &[SampleRecord],
    run_b: &str,
    records_b: &[SampleRecord],
    tol_pct: f64,
) -> DiffEval {
    let mut out = DiffEval {
        run_a: run_a.to_string(),
        run_b: run_b.to_string(),
        tol_pct: tol_pct.max(0.0),
        ..DiffEval::default()
    };
    // One side of the join: (fingerprint, ede_mean_nm, family).
    type ClipSide = (String, Option<f64>, Option<String>);
    // Last record wins per fingerprint on each side (a rerun within one
    // ledger supersedes its earlier line, mirroring the index).
    let by_fp = |records: &[SampleRecord]| -> (Vec<ClipSide>, usize) {
        let mut joined: Vec<ClipSide> = Vec::new();
        let mut unidentified = 0;
        for r in records {
            match &r.clip_fingerprint {
                None => unidentified += 1,
                Some(fp) => {
                    let entry = (fp.clone(), r.ede_mean_nm, r.family.clone());
                    match joined.iter_mut().find(|(f, _, _)| f == fp) {
                        Some(slot) => *slot = entry,
                        None => joined.push(entry),
                    }
                }
            }
        }
        (joined, unidentified)
    };
    let (a, unident_a) = by_fp(records_a);
    let (b, unident_b) = by_fp(records_b);
    out.unidentified_a = unident_a;
    out.unidentified_b = unident_b;

    for (fp, ede_a, family_a) in &a {
        match b.iter().find(|(f, _, _)| f == fp) {
            None => out.missing.push(DiffEntry {
                fingerprint: fp.clone(),
                family: family_a.clone(),
                ede_a_nm: *ede_a,
                ede_b_nm: None,
                delta_pct: None,
            }),
            Some((_, ede_b, family_b)) => {
                let entry = DiffEntry {
                    fingerprint: fp.clone(),
                    family: family_b.clone().or_else(|| family_a.clone()),
                    ede_a_nm: *ede_a,
                    ede_b_nm: *ede_b,
                    delta_pct: delta_pct(*ede_a, *ede_b),
                };
                match (*ede_a, *ede_b) {
                    // A contour that vanished is the worst regression a
                    // clip can show; one that appeared is an improvement.
                    (Some(_), None) => out.regressed.push(entry),
                    (None, Some(_)) => out.improved.push(entry),
                    (None, None) => out.unchanged += 1,
                    (Some(va), Some(vb)) => {
                        match verdict(vb, va, tol_pct, higher_is_better("ede_mean_nm")) {
                            Verdict::Regressed => out.regressed.push(entry),
                            Verdict::Improved => out.improved.push(entry),
                            Verdict::Within => out.unchanged += 1,
                        }
                    }
                }
            }
        }
    }
    for (fp, ede_b, family_b) in &b {
        if !a.iter().any(|(f, _, _)| f == fp) {
            out.new.push(DiffEntry {
                fingerprint: fp.clone(),
                family: family_b.clone(),
                ede_a_nm: None,
                ede_b_nm: *ede_b,
                delta_pct: None,
            });
        }
    }
    // Worst first: vanished contours ahead of everything, then by how
    // far the EDE moved; fingerprint breaks ties deterministically.
    let severity = |e: &DiffEntry| e.delta_pct.unwrap_or(f64::INFINITY);
    out.regressed.sort_by(|x, y| {
        severity(y)
            .partial_cmp(&severity(x))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.fingerprint.cmp(&y.fingerprint))
    });
    let gain = |e: &DiffEntry| e.delta_pct.unwrap_or(f64::NEG_INFINITY);
    out.improved.sort_by(|x, y| {
        gain(x)
            .partial_cmp(&gain(y))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.fingerprint.cmp(&y.fingerprint))
    });
    out.new.sort_by(|x, y| x.fingerprint.cmp(&y.fingerprint));
    out.missing.sort_by(|x, y| x.fingerprint.cmp(&y.fingerprint));
    out
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.3}"),
        None => "-".to_string(),
    }
}

fn table(out: &mut String, title: &str, entries: &[DiffEntry]) {
    if entries.is_empty() {
        return;
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{title} ({}):", entries.len());
    let _ = writeln!(
        out,
        "  {:<16} {:<9} {:>9} {:>9} {:>9}",
        "CLIP", "FAMILY", "A (nm)", "B (nm)", "DELTA"
    );
    for e in entries {
        let delta = match e.delta_pct {
            Some(d) => format!("{d:+.1}%"),
            None => match (e.ede_a_nm, e.ede_b_nm) {
                (Some(_), None) => "vanished".to_string(),
                (None, Some(_)) => "appeared".to_string(),
                _ => "-".to_string(),
            },
        };
        let _ = writeln!(
            out,
            "  {:<16} {:<9} {:>9} {:>9} {:>9}",
            e.fingerprint,
            e.family.as_deref().unwrap_or("-"),
            fmt_opt(e.ede_a_nm),
            fmt_opt(e.ede_b_nm),
            delta
        );
    }
}

/// Renders the diff tables (the golden-tested `runs diff-eval` output).
pub fn render_diff_eval(d: &DiffEval) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== diff-eval {} -> {} (tolerance {:.1}%) ==",
        d.run_a, d.run_b, d.tol_pct
    );
    let _ = writeln!(
        out,
        "clips: {} regressed, {} improved, {} unchanged, {} new, {} missing",
        d.regressed.len(),
        d.improved.len(),
        d.unchanged,
        d.new.len(),
        d.missing.len()
    );
    if d.unidentified_a + d.unidentified_b > 0 {
        let _ = writeln!(
            out,
            "unjoinable records without clip fingerprints: {} in A, {} in B",
            d.unidentified_a, d.unidentified_b
        );
    }
    table(&mut out, "regressed", &d.regressed);
    table(&mut out, "improved", &d.improved);
    table(&mut out, "new in B", &d.new);
    table(&mut out, "missing from B", &d.missing);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "gate: {}",
        if d.gate_passed() { "PASS" } else { "FAIL" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fp: &str, ede: Option<f64>, family: &str) -> SampleRecord {
        SampleRecord {
            sample: 0,
            pixel_accuracy: 0.9,
            class_accuracy: 0.8,
            mean_iou: 0.7,
            ede_mean_nm: ede,
            ede_edges_nm: ede.map(|e| [e; 4]),
            center_error_nm: ede.map(|_| 0.5),
            clip_fingerprint: Some(fp.to_string()),
            family: Some(family.to_string()),
        }
    }

    #[test]
    fn join_buckets_and_gate() {
        let a = vec![
            rec("clip-same", Some(3.0), "isolated"),
            rec("clip-worse", Some(3.0), "chain1d"),
            rec("clip-better", Some(3.0), "array2d"),
            rec("clip-vanish", Some(3.0), "isolated"),
            rec("clip-gone", Some(3.0), "chain1d"),
        ];
        let b = vec![
            rec("clip-same", Some(3.1), "isolated"),
            rec("clip-worse", Some(4.5), "chain1d"),
            rec("clip-better", Some(1.0), "array2d"),
            rec("clip-vanish", None, "isolated"),
            rec("clip-new", Some(2.0), "array2d"),
        ];
        let d = diff_eval("run-a", &a, "run-b", &b, 10.0);
        assert!(!d.gate_passed());
        // Vanished contour ranks ahead of the +50% numeric regression.
        let regressed: Vec<&str> = d.regressed.iter().map(|e| e.fingerprint.as_str()).collect();
        assert_eq!(regressed, vec!["clip-vanish", "clip-worse"]);
        assert_eq!(d.regressed[1].delta_pct, Some(50.0));
        assert_eq!(d.improved.len(), 1);
        assert_eq!(d.improved[0].fingerprint, "clip-better");
        assert_eq!(d.unchanged, 1, "within 10% tolerance");
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.new[0].fingerprint, "clip-new");
        assert_eq!(d.missing.len(), 1);
        assert_eq!(d.missing[0].fingerprint, "clip-gone");

        let text = render_diff_eval(&d);
        assert!(text.contains("gate: FAIL"));
        assert!(text.contains("vanished"));
        assert!(text.contains("clip-worse"));

        // With a generous tolerance only the vanished contour regresses.
        let d = diff_eval("run-a", &a, "run-b", &b, 100.0);
        let regressed: Vec<&str> = d.regressed.iter().map(|e| e.fingerprint.as_str()).collect();
        assert_eq!(regressed, vec!["clip-vanish"]);
    }

    #[test]
    fn identical_runs_pass_and_legacy_records_are_counted() {
        let a = vec![rec("clip-1", Some(3.0), "isolated")];
        let d = diff_eval("x", &a, "y", &a, 10.0);
        assert!(d.gate_passed());
        assert_eq!(d.unchanged, 1);
        assert!(render_diff_eval(&d).contains("gate: PASS"));

        let mut legacy = rec("ignored", Some(3.0), "isolated");
        legacy.clip_fingerprint = None;
        let d = diff_eval("x", &[legacy.clone()], "y", &[legacy], 10.0);
        assert_eq!(d.unidentified_a, 1);
        assert_eq!(d.unidentified_b, 1);
        assert_eq!(d.unchanged, 0, "fingerprint-less records cannot join");
        assert!(render_diff_eval(&d).contains("unjoinable records"));
    }
}
