//! Declarative alert rules and the serde-free `alerts.toml` parser.
//!
//! The config format is a deliberately small TOML subset, parsed by
//! hand the way the rest of the workspace hand-rolls JSON: `[[rule]]`
//! section headers, `key = value` pairs (quoted strings, numbers,
//! booleans), `#` comments, blank lines. Nothing else — no nested
//! tables, no arrays-of-values, no multi-line strings. Lists (e.g. the
//! health diagnoses filter) are comma-separated strings, matching the
//! CLI's `--abort-on nan,collapse` convention.
//!
//! ```toml
//! # Page when any command's latest run carries a bad health verdict.
//! [[rule]]
//! name = "unhealthy-run"
//! kind = "health"
//! severity = "page"
//!
//! [[rule]]
//! name = "ede-regression"
//! kind = "threshold"
//! metric = "ede_mean_nm"
//! op = "above"
//! value = 25.0
//! command = "train"
//! last = 20
//! for = 2
//! ```

use litho_health::DiagnosisKind;

/// Threshold direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    Above,
    Below,
}

impl Comparison {
    pub fn as_str(self) -> &'static str {
        match self {
            Comparison::Above => "above",
            Comparison::Below => "below",
        }
    }
}

/// What a rule evaluates. Every variant reads fleet state that already
/// exists — the index, health verdicts, the trend streak detector, run
/// directory mtimes — so rules never re-derive metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// Latest matching run's `metric` compared against a fixed bound.
    Threshold {
        metric: String,
        op: Comparison,
        value: f64,
    },
    /// Direction-aware fleet drift via the `runs trend` streak detector.
    Drift {
        metric: String,
        tol_pct: Option<f64>,
        drift_runs: Option<usize>,
    },
    /// Per-family drift: runs the streak detector over every
    /// `metric{family=...}` slice key present in the window (or just the
    /// named family), one incident per drifting family. Catches a slice
    /// regressing while the fleet-wide aggregate stays flat.
    SliceDrift {
        metric: String,
        /// Restrict to one clip family; `None` watches every family the
        /// index has seen for this metric.
        family: Option<String>,
        tol_pct: Option<f64>,
        drift_runs: Option<usize>,
    },
    /// Latest run per command carries a non-ok health verdict. `None`
    /// diagnoses matches any verdict; otherwise at least one listed
    /// diagnosis must appear in it.
    Health { diagnoses: Option<Vec<DiagnosisKind>> },
    /// A `running` run whose files stopped moving `after_s` ago.
    Stale { after_s: u64 },
}

impl RuleKind {
    pub fn kind_str(&self) -> &'static str {
        match self {
            RuleKind::Threshold { .. } => "threshold",
            RuleKind::Drift { .. } => "drift",
            RuleKind::SliceDrift { .. } => "slice_drift",
            RuleKind::Health { .. } => "health",
            RuleKind::Stale { .. } => "stale",
        }
    }
}

/// One configured rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    pub name: String,
    /// `warn` or `page`; free-form label, carried onto records/metrics.
    pub severity: String,
    /// Restrict to runs of one command (`train`, `eval`, …).
    pub command: Option<String>,
    /// Evaluate only the last N index records (like `runs ls --last`).
    pub last: Option<usize>,
    /// Consecutive evaluations the condition must hold before the alert
    /// leaves `pending` for `firing`. 1 (the default) fires immediately.
    pub for_evals: u64,
    pub kind: RuleKind,
}

/// The default rule set used when no `alerts.toml` exists: page on any
/// unhealthy latest run, warn on fleet EDE drift (aggregate and
/// per-family), warn on stalled runs.
pub fn default_rules() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "unhealthy-run".to_string(),
            severity: "page".to_string(),
            command: None,
            last: None,
            for_evals: 1,
            kind: RuleKind::Health { diagnoses: None },
        },
        AlertRule {
            name: "ede-drift".to_string(),
            severity: "warn".to_string(),
            command: None,
            last: None,
            for_evals: 1,
            kind: RuleKind::Drift {
                metric: "ede_mean_nm".to_string(),
                tol_pct: None,
                drift_runs: None,
            },
        },
        AlertRule {
            name: "slice-ede-drift".to_string(),
            severity: "warn".to_string(),
            command: None,
            last: None,
            for_evals: 1,
            kind: RuleKind::SliceDrift {
                metric: "ede_mean_nm".to_string(),
                family: None,
                tol_pct: None,
                drift_runs: None,
            },
        },
        AlertRule {
            name: "stale-run".to_string(),
            severity: "warn".to_string(),
            command: None,
            last: None,
            for_evals: 1,
            kind: RuleKind::Stale { after_s: 900 },
        },
    ]
}

/// One parsed `key = value`.
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Str(String),
    Num(f64),
    Bool(bool),
}

impl TomlValue {
    fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::Num(_) => "number",
            TomlValue::Bool(_) => "boolean",
        }
    }
}

struct RawRule {
    line: usize,
    pairs: Vec<(String, TomlValue, usize)>,
}

impl RawRule {
    fn take(&mut self, key: &str) -> Option<(TomlValue, usize)> {
        let i = self.pairs.iter().position(|(k, _, _)| k == key)?;
        let (_, v, line) = self.pairs.remove(i);
        Some((v, line))
    }

    fn take_str(&mut self, key: &str) -> Result<Option<String>, String> {
        match self.take(key) {
            Some((TomlValue::Str(s), _)) => Ok(Some(s)),
            Some((v, line)) => Err(format!(
                "line {line}: `{key}` must be a string, got {}",
                v.type_name()
            )),
            None => Ok(None),
        }
    }

    fn take_num(&mut self, key: &str) -> Result<Option<f64>, String> {
        match self.take(key) {
            Some((TomlValue::Num(n), _)) => Ok(Some(n)),
            Some((v, line)) => Err(format!(
                "line {line}: `{key}` must be a number, got {}",
                v.type_name()
            )),
            None => Ok(None),
        }
    }

    fn take_count(&mut self, key: &str) -> Result<Option<u64>, String> {
        match self.take_num(key)? {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(Some(n as u64)),
            Some(n) => Err(format!(
                "rule at line {}: `{key}` must be a non-negative integer, got {n}",
                self.line
            )),
            None => Ok(None),
        }
    }

    /// `drift_runs`, at least 1: a zero-run streak never fires, which
    /// would silently disarm the rule.
    fn take_drift_runs(&mut self) -> Result<Option<usize>, String> {
        match self.take_count("drift_runs")? {
            Some(0) => Err(format!("rule at line {}: `drift_runs` must be at least 1", self.line)),
            n => Ok(n.map(|n| n as usize)),
        }
    }
}

/// Strips a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_value(raw: &str, lineno: usize) -> Result<TomlValue, String> {
    let raw = raw.trim();
    if let Some(inner) = raw.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("line {lineno}: unterminated string"))?;
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => {
                    return Err(format!(
                        "line {lineno}: unsupported escape \\{}",
                        other.map(String::from).unwrap_or_default()
                    ))
                }
            }
        }
        return Ok(TomlValue::Str(out));
    }
    match raw {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    raw.parse::<f64>()
        .map(TomlValue::Num)
        .map_err(|_| format!("line {lineno}: cannot parse value {raw:?} (quote strings)"))
}

/// Parses an `alerts.toml` document into rules. Errors carry line
/// numbers; unknown keys are errors too, so typos don't silently
/// disable a rule.
pub fn parse_rules(text: &str) -> Result<Vec<AlertRule>, String> {
    let mut raws: Vec<RawRule> = Vec::new();
    for (i, raw_line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[rule]]" {
            raws.push(RawRule {
                line: lineno,
                pairs: Vec::new(),
            });
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {lineno}: unsupported section {line:?} (only [[rule]] is recognized)"
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = value`, got {line:?}"));
        };
        let Some(rule) = raws.last_mut() else {
            return Err(format!(
                "line {lineno}: `{}` appears before the first [[rule]] section",
                key.trim()
            ));
        };
        let key = key.trim().to_string();
        if rule.pairs.iter().any(|(k, _, _)| *k == key) {
            return Err(format!("line {lineno}: duplicate key `{key}`"));
        }
        let value = parse_value(value, lineno)?;
        rule.pairs.push((key, value, lineno));
    }

    let mut rules = Vec::with_capacity(raws.len());
    for mut raw in raws {
        let rule = finish_rule(&mut raw)?;
        if let Some((key, _, line)) = raw.pairs.first() {
            return Err(format!(
                "line {line}: unknown key `{key}` for {} rule",
                rule.kind.kind_str()
            ));
        }
        if rules.iter().any(|r: &AlertRule| r.name == rule.name) {
            return Err(format!(
                "rule at line {}: duplicate rule name {:?}",
                raw.line, rule.name
            ));
        }
        rules.push(rule);
    }
    Ok(rules)
}

fn finish_rule(raw: &mut RawRule) -> Result<AlertRule, String> {
    let at = raw.line;
    let kind_name = raw
        .take_str("kind")?
        .ok_or_else(|| format!("rule at line {at}: missing `kind`"))?;
    let name = raw
        .take_str("name")?
        .ok_or_else(|| format!("rule at line {at}: missing `name`"))?;
    let severity = raw.take_str("severity")?.unwrap_or_else(|| "warn".into());
    let command = raw.take_str("command")?;
    let last = raw.take_count("last")?.map(|n| n as usize);
    let for_evals = raw.take_count("for")?.unwrap_or(1).max(1);

    let kind = match kind_name.as_str() {
        "threshold" => {
            let metric = raw
                .take_str("metric")?
                .ok_or_else(|| format!("rule at line {at}: threshold rule needs `metric`"))?;
            let op = match raw.take_str("op")?.as_deref() {
                Some("above") | None => Comparison::Above,
                Some("below") => Comparison::Below,
                Some(other) => {
                    return Err(format!(
                        "rule at line {at}: `op` must be \"above\" or \"below\", got {other:?}"
                    ))
                }
            };
            let value = raw
                .take_num("value")?
                .ok_or_else(|| format!("rule at line {at}: threshold rule needs `value`"))?;
            RuleKind::Threshold { metric, op, value }
        }
        "drift" => RuleKind::Drift {
            metric: raw
                .take_str("metric")?
                .ok_or_else(|| format!("rule at line {at}: drift rule needs `metric`"))?,
            tol_pct: raw.take_num("tol_pct")?,
            drift_runs: raw.take_drift_runs()?,
        },
        "slice_drift" => RuleKind::SliceDrift {
            metric: raw
                .take_str("metric")?
                .ok_or_else(|| format!("rule at line {at}: slice_drift rule needs `metric`"))?,
            family: raw.take_str("family")?,
            tol_pct: raw.take_num("tol_pct")?,
            drift_runs: raw.take_drift_runs()?,
        },
        "health" => {
            let diagnoses = match raw.take_str("diagnoses")? {
                None => None,
                Some(list) if list == "any" => None,
                Some(list) => Some(
                    DiagnosisKind::parse_list(&list)
                        .map_err(|e| format!("rule at line {at}: {e}"))?,
                ),
            };
            RuleKind::Health { diagnoses }
        }
        "stale" => RuleKind::Stale {
            after_s: raw
                .take_count("after_s")?
                .ok_or_else(|| format!("rule at line {at}: stale rule needs `after_s`"))?,
        },
        other => {
            return Err(format!(
                "rule at line {at}: unknown kind {other:?} \
                 (expected threshold, drift, slice_drift, health or stale)"
            ))
        }
    };
    Ok(AlertRule {
        name,
        severity,
        command,
        last,
        for_evals,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_rule_kinds() {
        let text = r#"
# fleet alerting rules
[[rule]]
name = "ede-regression"   # trailing comment
kind = "threshold"
metric = "ede_mean_nm"
op = "above"
value = 25.0
command = "train"
last = 20
for = 2
severity = "page"

[[rule]]
name = "ede-drift"
kind = "drift"
metric = "ede_mean_nm"
tol_pct = 12.5
drift_runs = 3

[[rule]]
name = "chain-drift"
kind = "slice_drift"
metric = "ede_mean_nm"
family = "chain1d"
tol_pct = 8.0

[[rule]]
name = "nan-watch"
kind = "health"
diagnoses = "nan,collapse"

[[rule]]
name = "stuck"
kind = "stale"
after_s = 600
"#;
        let rules = parse_rules(text).unwrap();
        assert_eq!(rules.len(), 5);
        assert_eq!(rules[0].name, "ede-regression");
        assert_eq!(rules[0].severity, "page");
        assert_eq!(rules[0].command.as_deref(), Some("train"));
        assert_eq!(rules[0].last, Some(20));
        assert_eq!(rules[0].for_evals, 2);
        assert_eq!(
            rules[0].kind,
            RuleKind::Threshold {
                metric: "ede_mean_nm".into(),
                op: Comparison::Above,
                value: 25.0,
            }
        );
        assert_eq!(
            rules[1].kind,
            RuleKind::Drift {
                metric: "ede_mean_nm".into(),
                tol_pct: Some(12.5),
                drift_runs: Some(3),
            }
        );
        assert_eq!(
            rules[2].kind,
            RuleKind::SliceDrift {
                metric: "ede_mean_nm".into(),
                family: Some("chain1d".into()),
                tol_pct: Some(8.0),
                drift_runs: None,
            }
        );
        assert_eq!(
            rules[3].kind,
            RuleKind::Health {
                diagnoses: Some(vec![DiagnosisKind::NanPoisoned, DiagnosisKind::ModeCollapse]),
            }
        );
        assert_eq!(rules[4].kind, RuleKind::Stale { after_s: 600 });
        assert_eq!(rules[4].severity, "warn"); // default
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let text = "[[rule]]\nname = \"a#b\"\nkind = \"health\"\n";
        let rules = parse_rules(text).unwrap();
        assert_eq!(rules[0].name, "a#b");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("name = \"x\"\n", "before the first [[rule]]"),
            ("[[rule]]\nkind = \"health\"\n", "missing `name`"),
            ("[[rule]]\nname = \"x\"\n", "missing `kind`"),
            ("[[rule]]\nname = \"x\"\nkind = \"nope\"\n", "unknown kind"),
            ("[[rule]]\nname = \"x\"\nkind = \"health\"\nbogus = 1\n", "unknown key `bogus`"),
            ("[[rule]]\nname = \"x\"\nkind = \"stale\"\nafter_s = \"soon\"\n", "must be a number"),
            ("[[rule]]\nname = \"x\"\nkind = \"stale\"\nafter_s = 1.5\n", "non-negative integer"),
            (
                "\n[[rule]]\nname = \"x\"\nkind = \"slice_drift\"\nmetric = \"m\"\ndrift_runs = 0\n",
                "rule at line 2: `drift_runs` must be at least 1",
            ),
            ("[[rule]]\nname = \"x\"\nkind = \"health\"\nname = \"y\"\n", "duplicate key"),
            ("[table]\n", "unsupported section"),
            ("[[rule]]\nname = x\nkind = \"health\"\n", "quote strings"),
            (
                "[[rule]]\nname = \"x\"\nkind = \"health\"\n[[rule]]\nname = \"x\"\nkind = \"health\"\n",
                "duplicate rule name",
            ),
        ];
        for (text, needle) in cases {
            let err = parse_rules(text).unwrap_err();
            assert!(
                err.contains(needle),
                "config {text:?}: error {err:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn default_rules_cover_health_drift_stale() {
        let kinds: Vec<&str> = default_rules().iter().map(|r| r.kind.kind_str()).collect();
        assert_eq!(kinds, vec!["health", "drift", "slice_drift", "stale"]);
    }

    #[test]
    fn slice_drift_without_family_watches_all_families() {
        let text = "[[rule]]\nname = \"s\"\nkind = \"slice_drift\"\nmetric = \"ede_mean_nm\"\n";
        let rules = parse_rules(text).unwrap();
        assert_eq!(
            rules[0].kind,
            RuleKind::SliceDrift {
                metric: "ede_mean_nm".into(),
                family: None,
                tol_pct: None,
                drift_runs: None,
            }
        );
        // Missing metric is an error, like plain drift.
        let err = parse_rules("[[rule]]\nname = \"s\"\nkind = \"slice_drift\"\n").unwrap_err();
        assert!(err.contains("slice_drift rule needs `metric`"), "{err}");
    }
}
