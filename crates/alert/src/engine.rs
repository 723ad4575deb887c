//! The alert engine: rules × fleet state → alert state transitions.
//!
//! One evaluation is pure given its inputs — the index records, the
//! runs root (for stale-run mtime scanning), the wall clock, and the
//! previously active alerts — so tests and goldens pin `now_unix_s`
//! and get byte-stable output. The engine owns the state machine:
//!
//! ```text
//!            condition holds,            condition holds,
//!            streak < for               streak >= for
//!   (none) ───────────────▶ pending ───────────────▶ firing
//!              │                │  condition clears     │
//!              └── streak>=for ─┴────────▶ resolved ◀───┘
//! ```
//!
//! Only *transitions* (plus streak advances while pending) are emitted
//! for appending to `runs/alerts.jsonl`; a steadily-firing alert costs
//! nothing per evaluation. A resolved fingerprint that trips again
//! starts a fresh alert with a new first-seen.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::UNIX_EPOCH;

use litho_ledger::{
    load_manifest, scan_run_dirs, slice_metric_key, split_slice_key, trend, IndexRecord,
    TrendConfig,
};

use crate::config::{AlertRule, Comparison, RuleKind};
use crate::record::{fingerprint, AlertRecord, AlertState, ALERTS_SCHEMA};

/// Everything one evaluation reads.
pub struct EngineContext<'a> {
    /// Chronological fleet index, as [`litho_ledger::load_index`] returns it.
    pub records: &'a [IndexRecord],
    /// The runs root, scanned by stale-run rules for file activity.
    pub runs_root: &'a Path,
    /// The evaluation wall clock; injected so goldens are deterministic.
    pub now_unix_s: u64,
}

/// One rule match within one evaluation, before state-machine merge.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    pub subject: String,
    pub reason: String,
    pub value: Option<f64>,
}

/// The result of one evaluation.
#[derive(Debug, Default, Clone)]
pub struct EvalOutcome {
    /// Records to append to `runs/alerts.jsonl`: new alerts, state
    /// changes, and streak advances of still-pending alerts.
    pub transitions: Vec<AlertRecord>,
    /// All alerts pending or firing after this evaluation, in
    /// first-seen order — what tables, `/api/alerts` and `/metrics`
    /// should show.
    pub active: Vec<AlertRecord>,
}

impl EvalOutcome {
    /// The subset of [`EvalOutcome::active`] that is firing.
    pub fn firing(&self) -> Vec<&AlertRecord> {
        self.active
            .iter()
            .filter(|a| a.state == AlertState::Firing)
            .collect()
    }
}

/// Runs every rule once and merges the matches into the persisted
/// alert state. `prior_active` is [`crate::AlertsLoad::active`] from
/// the previous evaluation (resolved alerts must not be included —
/// they are history, not state).
pub fn evaluate(rules: &[AlertRule], ctx: &EngineContext, prior_active: &[AlertRecord]) -> EvalOutcome {
    // Fingerprint -> incident + owning rule, for this evaluation.
    let mut matched: BTreeMap<String, (usize, Incident)> = BTreeMap::new();
    for (i, rule) in rules.iter().enumerate() {
        for incident in evaluate_rule(rule, ctx) {
            let fp = fingerprint(&rule.name, &incident.subject);
            // First writer wins; rule names are unique so a collision
            // here means the same rule matched the same subject twice.
            matched.entry(fp).or_insert((i, incident));
        }
    }

    let mut outcome = EvalOutcome::default();
    let mut seen_prior: Vec<&str> = Vec::new();

    // Advance or resolve every previously active alert.
    for prev in prior_active {
        seen_prior.push(&prev.fingerprint);
        match matched.remove(&prev.fingerprint) {
            Some((rule_idx, incident)) => {
                let rule = &rules[rule_idx];
                let streak = prev.streak + 1;
                let state = confirmed_state(streak, rule.for_evals);
                let next = AlertRecord {
                    state,
                    reason: incident.reason,
                    value: incident.value,
                    streak,
                    last_seen_unix_s: ctx.now_unix_s,
                    ..prev.clone()
                };
                // Pending streak advances are persisted (the streak is
                // state); a steadily-firing alert appends nothing.
                if state != prev.state || state == AlertState::Pending {
                    outcome.transitions.push(next.clone());
                }
                outcome.active.push(next);
            }
            None => {
                outcome.transitions.push(AlertRecord {
                    state: AlertState::Resolved,
                    reason: format!("condition cleared: {}", prev.reason),
                    last_seen_unix_s: ctx.now_unix_s,
                    ..prev.clone()
                });
            }
        }
    }

    // Whatever remains matched is new this evaluation.
    for (fp, (rule_idx, incident)) in matched {
        debug_assert!(!seen_prior.contains(&fp.as_str()));
        let rule = &rules[rule_idx];
        let state = confirmed_state(1, rule.for_evals);
        let rec = AlertRecord {
            schema_version: ALERTS_SCHEMA,
            rule: rule.name.clone(),
            kind: rule.kind.kind_str().to_string(),
            severity: rule.severity.clone(),
            state,
            fingerprint: fp,
            subject: incident.subject,
            reason: incident.reason,
            value: incident.value,
            streak: 1,
            first_seen_unix_s: ctx.now_unix_s,
            last_seen_unix_s: ctx.now_unix_s,
        };
        outcome.transitions.push(rec.clone());
        outcome.active.push(rec);
    }

    outcome.active.sort_by(|a, b| {
        (a.first_seen_unix_s, &a.rule, &a.subject).cmp(&(b.first_seen_unix_s, &b.rule, &b.subject))
    });
    outcome
}

fn confirmed_state(streak: u64, for_evals: u64) -> AlertState {
    if streak >= for_evals {
        AlertState::Firing
    } else {
        AlertState::Pending
    }
}

/// Applies a rule's `command` filter and `last` window to the index.
fn window<'a>(rule: &AlertRule, records: &'a [IndexRecord]) -> Vec<&'a IndexRecord> {
    let filtered: Vec<&IndexRecord> = records
        .iter()
        .filter(|r| rule.command.as_deref().is_none_or(|c| r.command == c))
        .collect();
    let start = rule.last.map_or(0, |n| filtered.len().saturating_sub(n));
    filtered[start..].to_vec()
}

/// Evaluates one rule against the fleet, yielding zero or more matches.
pub fn evaluate_rule(rule: &AlertRule, ctx: &EngineContext) -> Vec<Incident> {
    match &rule.kind {
        RuleKind::Threshold { metric, op, value } => {
            let recs = window(rule, ctx.records);
            // Latest run that recorded the metric: a threshold alert is
            // about the fleet's current state, not its history.
            let Some((rec, v)) = recs
                .iter()
                .rev()
                .find_map(|r| r.metric(metric).map(|v| (*r, v)))
            else {
                return Vec::new();
            };
            // NaN compares false against any bound, but a poisoned
            // metric is never "within bounds" — treat it as tripped.
            let tripped = !v.is_finite()
                || match op {
                    Comparison::Above => v > *value,
                    Comparison::Below => v < *value,
                };
            if !tripped {
                return Vec::new();
            }
            vec![Incident {
                subject: rec.run_id.clone(),
                reason: format!("{metric} = {v} {} threshold {value}", op.as_str()),
                value: Some(v),
            }]
        }
        RuleKind::Drift {
            metric,
            tol_pct,
            drift_runs,
        } => {
            let recs: Vec<IndexRecord> = window(rule, ctx.records).into_iter().cloned().collect();
            let cfg = TrendConfig::new(*tol_pct, *drift_runs);
            drift_incident(&recs, metric, None, &cfg).into_iter().collect()
        }
        RuleKind::SliceDrift {
            metric,
            family,
            tol_pct,
            drift_runs,
        } => {
            let recs: Vec<IndexRecord> = window(rule, ctx.records).into_iter().cloned().collect();
            // Which families to watch: the configured one, or every
            // family the windowed index has recorded for this metric.
            let families: Vec<String> = match family {
                Some(f) => vec![f.clone()],
                None => {
                    let mut fams: Vec<String> = recs
                        .iter()
                        .flat_map(|r| r.metrics.iter().map(|(k, _)| k.as_str()))
                        .filter_map(split_slice_key)
                        .filter(|(base, _)| base == metric)
                        .map(|(_, fam)| fam.to_string())
                        .collect();
                    fams.sort();
                    fams.dedup();
                    fams
                }
            };
            let cfg = TrendConfig::new(*tol_pct, *drift_runs);
            families
                .iter()
                .filter_map(|fam| drift_incident(&recs, metric, Some(fam.as_str()), &cfg))
                .collect()
        }
        RuleKind::Health { diagnoses } => {
            let recs = window(rule, ctx.records);
            // Latest health-carrying run *per command*: a bad train run
            // keeps alerting until a newer healthy train run lands, and
            // an unhealthy eval doesn't mask it.
            let mut latest: BTreeMap<&str, (&IndexRecord, &str)> = BTreeMap::new();
            for r in &recs {
                if let Some(h) = r.health.as_deref() {
                    latest.insert(r.command.as_str(), (r, h));
                }
            }
            latest
                .values()
                .filter(|(_, verdict)| *verdict != "ok")
                .filter(|(_, verdict)| match diagnoses {
                    None => true,
                    Some(kinds) => verdict
                        .split(',')
                        .any(|d| kinds.iter().any(|k| k.as_str() == d.trim())),
                })
                .map(|(rec, verdict)| Incident {
                    subject: rec.run_id.clone(),
                    reason: format!("health verdict: {verdict} (status {})", rec.status),
                    value: None,
                })
                .collect()
        }
        RuleKind::Stale { after_s } => {
            let Ok(dirs) = scan_run_dirs(ctx.runs_root) else {
                return Vec::new();
            };
            let mut out = Vec::new();
            for dir in dirs {
                let Ok(manifest) = load_manifest(&dir) else {
                    continue;
                };
                if manifest.status != "running" {
                    continue;
                }
                if let Some(command) = rule.command.as_deref() {
                    if manifest.command != command {
                        continue;
                    }
                }
                let Some(last_activity) = last_activity_unix_s(&dir) else {
                    continue;
                };
                let idle = ctx.now_unix_s.saturating_sub(last_activity);
                if idle <= *after_s {
                    continue;
                }
                out.push(Incident {
                    subject: manifest.run_id.clone(),
                    reason: format!("running but no file activity for {idle}s (limit {after_s}s)"),
                    value: Some(idle as f64),
                });
            }
            out.sort_by(|a, b| a.subject.cmp(&b.subject));
            out
        }
    }
}

/// Newest mtime across the files a live run appends to.
fn last_activity_unix_s(run_dir: &Path) -> Option<u64> {
    ["manifest.json", "samples.jsonl", "trace.jsonl", "health.jsonl"]
        .iter()
        .filter_map(|f| std::fs::metadata(run_dir.join(f)).ok())
        .filter_map(|m| m.modified().ok())
        .filter_map(|t| t.duration_since(UNIX_EPOCH).ok())
        .map(|d| d.as_secs())
        .max()
}

/// The incident for a confirmed drift of `metric` (or of its `family`
/// slice) over `recs`, if any.
fn drift_incident(
    recs: &[IndexRecord],
    metric: &str,
    family: Option<&str>,
    cfg: &TrendConfig,
) -> Option<Incident> {
    let (key, subject, label) = match family {
        Some(fam) => (
            slice_metric_key(metric, fam),
            format!("fleet/{metric}/family={fam}"),
            format!("{metric}[{fam}]"),
        ),
        None => (metric.to_string(), format!("fleet/{metric}"), metric.to_string()),
    };
    let t = trend(recs, &key, None, cfg);
    let drift = t.drift?;
    Some(Incident {
        subject,
        reason: format!(
            "{label} drifting for {} runs since {} (worst {}, median {})",
            drift.runs,
            drift.start_run_id,
            fmt_val(drift.worst),
            t.reference.map(fmt_val).unwrap_or_else(|| "-".into()),
        ),
        value: Some(drift.worst),
    })
}

fn fmt_val(v: f64) -> String {
    if !v.is_finite() {
        "NaN".to_string()
    } else if v == v.trunc() && v.abs() < 1e9 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}
