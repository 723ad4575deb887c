//! Run-to-run comparison and the metric regression gate.
//!
//! `compare <run-a> <run-b>` renders an aligned delta table over the two
//! runs' aggregated metrics and shared span timings. `compare <run>
//! --gate baseline.json [--tol-pct N]` checks the run against a committed
//! baseline and reports every metric that regressed beyond tolerance —
//! the CI hook that keeps the paper's headline numbers from silently
//! drifting.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::Json;
use crate::report::{fmt_us, metric_rows, RunData};
use crate::verdict::{higher_is_better, verdict, Verdict};

/// Extracts the gateable metrics of a run: the aggregated per-sample
/// metrics plus `wall_clock_s` and per-span totals under `span:<path>`
/// (seconds).
pub fn run_metrics(run: &RunData) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(s) = &run.summary {
        out.push(("samples".to_string(), s.samples as f64));
        for (k, v) in metric_rows(s) {
            out.push((k.to_string(), v));
        }
        out.push(("skipped_pairs".to_string(), s.skipped as f64));
        for slice in &s.slices {
            if let Some(ede) = slice.ede_mean_nm {
                out.push((crate::index::slice_metric_key("ede_mean_nm", &slice.family), ede));
            }
        }
    }
    if let Some(wall) = run.manifest.wall_clock_s {
        out.push(("wall_clock_s".to_string(), wall));
    }
    if let Some(rss) = run.manifest.peak_rss_bytes {
        out.push(("peak_rss_mib".to_string(), rss as f64 / (1u64 << 20) as f64));
    }
    if let Some(alloc) = run.manifest.tensor_alloc_bytes {
        out.push((
            "tensor_alloc_mib".to_string(),
            alloc as f64 / (1u64 << 20) as f64,
        ));
    }
    if let Some(t) = &run.trace {
        for s in &t.spans {
            out.push((format!("span:{}", s.path), s.total_us / 1e6));
        }
    }
    out
}

fn lookup(metrics: &[(String, f64)], key: &str) -> Option<f64> {
    metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// Renders the side-by-side comparison of two runs.
pub fn render_compare(a: &RunData, b: &RunData) -> String {
    let ma = run_metrics(a);
    let mb = run_metrics(b);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== compare {} vs {} ==",
        a.manifest.run_id, b.manifest.run_id
    );
    if let (Some(da), Some(db)) = (&a.manifest.dataset, &b.manifest.dataset) {
        if da.fingerprint != db.fingerprint {
            let _ = writeln!(
                out,
                "warning: dataset fingerprints differ ({} vs {}) — metric deltas compare different data",
                da.fingerprint, db.fingerprint
            );
        }
    }
    let keys: Vec<&String> = ma
        .iter()
        .map(|(k, _)| k)
        .filter(|k| lookup(&mb, k).is_some())
        .collect();
    let w = keys.iter().map(|k| k.len()).max().unwrap_or(6).max(6);
    let _ = writeln!(
        out,
        "{:<w$} {:>12} {:>12} {:>12} {:>9}",
        "metric", "a", "b", "delta", "delta%"
    );
    for key in keys {
        let va = lookup(&ma, key).expect("key from ma");
        let vb = lookup(&mb, key).expect("filtered on presence in mb");
        let delta = vb - va;
        let pct = if va != 0.0 {
            format!("{:>+8.1}%", delta / va * 100.0)
        } else {
            "        -".to_string()
        };
        let (fa, fb, fd) = if key.starts_with("span:") {
            (
                fmt_us(va * 1e6),
                fmt_us(vb * 1e6),
                format!("{}{}", if delta >= 0.0 { "+" } else { "-" }, fmt_us(delta.abs() * 1e6)),
            )
        } else {
            (format!("{va:.4}"), format!("{vb:.4}"), format!("{delta:+.4}"))
        };
        let _ = writeln!(out, "{key:<w$} {fa:>12} {fb:>12} {fd:>12} {pct}");
    }
    for (label, run) in [("a", a), ("b", b)] {
        if let Some(h) = &run.health {
            let verdict = if h.has_poison() {
                "NaN/Inf POISONED".to_string()
            } else if h.diagnoses.is_empty() {
                "ok".to_string()
            } else {
                let names: Vec<&str> = h.diagnoses.iter().map(|d| d.kind.as_str()).collect();
                format!("{} diagnoses ({})", h.diagnoses.len(), names.join(", "))
            };
            let _ = writeln!(out, "health {label} ({}): {verdict}", run.manifest.run_id);
        }
    }
    out
}

/// A committed regression baseline: metric values plus a default
/// tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Allowed relative degradation, percent.
    pub tol_pct: f64,
    /// The run the baseline was captured from; `runs gc` never deletes
    /// it. Absent in baselines written before this field existed.
    pub run_id: Option<String>,
    pub metrics: Vec<(String, f64)>,
    /// Which bench binary emitted which metric names — the provenance
    /// that lets a read-merge-write `--json-out` drop keys a binary has
    /// stopped emitting without touching other binaries' rows. Empty on
    /// baselines from before the field existed (nothing is ever dropped
    /// from those until a source re-claims its names).
    pub sources: Vec<(String, Vec<String>)>,
}

impl Baseline {
    /// Parses a baseline file:
    /// `{"tol_pct": 25, "metrics": {"ede_mean_nm": 6.5, ...}}`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for malformed content.
    pub fn from_json_str(text: &str) -> io::Result<Baseline> {
        let invalid =
            |msg: String| io::Error::new(io::ErrorKind::InvalidData, format!("baseline: {msg}"));
        let v = Json::parse(text).map_err(|e| invalid(e.to_string()))?;
        let metrics = match v.get("metrics") {
            Some(Json::Obj(members)) => {
                let mut out = Vec::new();
                for (k, val) in members {
                    let num = val
                        .as_f64()
                        .ok_or_else(|| invalid(format!("metric {k:?} is not a number")))?;
                    out.push((k.clone(), num));
                }
                out
            }
            _ => return Err(invalid("missing \"metrics\" object".to_string())),
        };
        let sources = match v.get("sources") {
            Some(Json::Obj(members)) => members
                .iter()
                .filter_map(|(src, val)| match val {
                    Json::Arr(items) => Some((
                        src.clone(),
                        items
                            .iter()
                            .filter_map(|i| i.as_str().map(str::to_string))
                            .collect(),
                    )),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        Ok(Baseline {
            tol_pct: v.get("tol_pct").and_then(Json::as_f64).unwrap_or(0.0),
            run_id: v.get("run_id").and_then(Json::as_str).map(str::to_string),
            metrics,
            sources,
        })
    }

    /// Reads a baseline file from disk.
    ///
    /// # Errors
    ///
    /// I/O errors or malformed content.
    pub fn load(path: &Path) -> io::Result<Baseline> {
        Self::from_json_str(&std::fs::read_to_string(path)?)
    }

    /// Serializes in the format [`Self::from_json_str`] reads. Useful for
    /// regenerating the committed baseline from a fresh run.
    pub fn to_json_string(&self) -> String {
        let mut members = vec![("tol_pct".to_string(), Json::Num(self.tol_pct))];
        if let Some(id) = &self.run_id {
            members.push(("run_id".to_string(), Json::Str(id.clone())));
        }
        members.push((
            "metrics".to_string(),
            Json::Obj(
                self.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ));
        if !self.sources.is_empty() {
            members.push((
                "sources".to_string(),
                Json::Obj(
                    self.sources
                        .iter()
                        .map(|(src, names)| {
                            (
                                src.clone(),
                                Json::Arr(names.iter().map(|n| Json::Str(n.clone())).collect()),
                            )
                        })
                        .collect(),
                ),
            ));
        }
        let mut out = Json::Obj(members).to_string_compact();
        out.push('\n');
        out
    }

    /// Builds a baseline from a run's current metrics, keeping only the
    /// given keys (all when `keys` is empty).
    pub fn from_run(run: &RunData, tol_pct: f64, keys: &[&str]) -> Baseline {
        let metrics = run_metrics(run)
            .into_iter()
            .filter(|(k, _)| keys.is_empty() || keys.contains(&k.as_str()))
            .collect();
        Baseline {
            tol_pct,
            run_id: Some(run.manifest.run_id.clone()),
            metrics,
            sources: Vec::new(),
        }
    }
}

/// One gate verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    pub metric: String,
    pub baseline: f64,
    pub actual: Option<f64>,
    /// `true` when within tolerance (or an improvement).
    pub pass: bool,
}

/// Outcome of gating one run against a baseline.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    pub checks: Vec<GateCheck>,
    pub tol_pct: f64,
}

impl GateOutcome {
    /// Records `metric`'s check against its baseline value: it fails when
    /// the actual value is missing or regressed beyond [`Self::tol_pct`]
    /// in the metric's direction.
    pub fn check(&mut self, metric: &str, baseline: f64, actual: Option<f64>) {
        let pass = actual.is_some_and(|v| {
            verdict(v, baseline, self.tol_pct, higher_is_better(metric)) != Verdict::Regressed
        });
        self.checks.push(GateCheck {
            metric: metric.to_string(),
            baseline,
            actual,
            pass,
        });
    }

    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    pub fn failures(&self) -> impl Iterator<Item = &GateCheck> {
        self.checks.iter().filter(|c| !c.pass)
    }

    /// Human-readable gate table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== gate (tolerance {:.1}%) ==", self.tol_pct);
        let w = self
            .checks
            .iter()
            .map(|c| c.metric.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let _ = writeln!(
            out,
            "{:<w$} {:>12} {:>12}  verdict",
            "metric", "baseline", "actual"
        );
        for c in &self.checks {
            let actual = match c.actual {
                Some(v) => format!("{v:.4}"),
                None => "missing".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<w$} {:>12.4} {:>12}  {}",
                c.metric,
                c.baseline,
                actual,
                if c.pass { "ok" } else { "REGRESSED" }
            );
        }
        let _ = writeln!(
            out,
            "gate: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Gates a run against a baseline. `tol_pct_override` takes precedence
/// over the baseline file's tolerance. A baseline metric the run does not
/// report fails the gate (a silently-vanished metric is itself a
/// regression).
///
/// Independent of metric tolerances, a run whose health stream carries a
/// NaN/Inf sentinel fails outright (`health:nan_free`): its metrics may
/// look in-tolerance while the model is numerically poisoned.
pub fn gate(run: &RunData, baseline: &Baseline, tol_pct_override: Option<f64>) -> GateOutcome {
    let tol_pct = tol_pct_override.unwrap_or(baseline.tol_pct).max(0.0);
    let metrics = run_metrics(run);
    let mut outcome = GateOutcome {
        checks: Vec::new(),
        tol_pct,
    };
    if let Some(h) = &run.health {
        let clean = !h.has_poison();
        outcome.checks.push(GateCheck {
            metric: "health:nan_free".to_string(),
            baseline: 1.0,
            actual: Some(if clean { 1.0 } else { 0.0 }),
            pass: clean,
        });
    }
    for (key, base) in &baseline.metrics {
        outcome.check(key, *base, lookup(&metrics, key));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_round_trip() {
        let b = Baseline {
            tol_pct: 25.0,
            run_id: Some("train-1-2".to_string()),
            metrics: vec![
                ("ede_mean_nm".to_string(), 6.5),
                ("pixel_accuracy".to_string(), 0.93),
            ],
            sources: vec![(
                "nn_kernels".to_string(),
                vec!["ede_mean_nm".to_string(), "pixel_accuracy".to_string()],
            )],
        };
        let parsed = Baseline::from_json_str(&b.to_json_string()).unwrap();
        assert_eq!(parsed, b);
        // Baselines written before run_id/sources existed still parse.
        let legacy = Baseline::from_json_str("{\"tol_pct\":5,\"metrics\":{\"a\":1}}").unwrap();
        assert_eq!(legacy.run_id, None);
        assert!(legacy.sources.is_empty());
        assert!(Baseline::from_json_str("{}").is_err());
        assert!(Baseline::from_json_str("{\"metrics\":{\"a\":\"x\"}}").is_err());
    }
}
