//! The training-run diagnoser: six named failure modes over a decoded
//! `health.jsonl` stream.
//!
//! Each rule produces at most one [`Diagnosis`] per subject (a layer, a
//! parameter, a network or the run), stamped with the first epoch/step
//! where the qualifying window *started* — the moment an operator staring
//! at the run should rewind to. Thresholds are the constants below,
//! tabled in DESIGN §4c; streak requirements exist to suppress
//! single-step noise (e.g. the update ratio of a freshly-initialized bias
//! is legitimately huge for a step or two).

use std::collections::BTreeMap;

use crate::record::{HealthRecord, Pass};

/// The six named failure modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiagnosisKind {
    /// NaN/Inf sentinels in any activation, gradient or loss.
    NanPoisoned,
    /// A layer's backward gradient ℓ2 collapses to ~0 while gradients
    /// elsewhere in the same pass are healthy.
    VanishingGradient,
    /// A parameter's update-to-weight ratio stays ≥ 1 across consecutive
    /// sampled steps — the optimizer is overshooting.
    ExplodingUpdate,
    /// A layer's output is (almost) all zeros on every sampled pass —
    /// dead ReLU.
    DeadLayer,
    /// The discriminator classifies both real and fake near-perfectly
    /// for consecutive epochs; the generator receives no usable signal.
    DOverpowersG,
    /// Generator output diversity (batch std) collapses — mode collapse.
    ModeCollapse,
}

impl DiagnosisKind {
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosisKind::NanPoisoned => "nan-poisoned",
            DiagnosisKind::VanishingGradient => "vanishing-gradient",
            DiagnosisKind::ExplodingUpdate => "exploding-update",
            DiagnosisKind::DeadLayer => "dead-layer",
            DiagnosisKind::DOverpowersG => "d-overpowers-g",
            DiagnosisKind::ModeCollapse => "mode-collapse",
        }
    }

    /// Parses a diagnosis name as used by `--fail-on`/`--abort-on` lists.
    /// Accepts the short aliases `nan` and `collapse`.
    pub fn parse(s: &str) -> Option<DiagnosisKind> {
        match s.trim() {
            "nan" | "nan-poisoned" => Some(DiagnosisKind::NanPoisoned),
            "vanishing-gradient" => Some(DiagnosisKind::VanishingGradient),
            "exploding-update" => Some(DiagnosisKind::ExplodingUpdate),
            "dead-layer" => Some(DiagnosisKind::DeadLayer),
            "d-overpowers-g" => Some(DiagnosisKind::DOverpowersG),
            "collapse" | "mode-collapse" => Some(DiagnosisKind::ModeCollapse),
            _ => None,
        }
    }

    /// Parses a comma-separated list of diagnosis names.
    ///
    /// # Errors
    ///
    /// Returns the first unrecognized name.
    pub fn parse_list(s: &str) -> Result<Vec<DiagnosisKind>, String> {
        let mut kinds = Vec::new();
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let kind = DiagnosisKind::parse(part)
                .ok_or_else(|| format!("unknown diagnosis {:?}", part.trim()))?;
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
        Ok(kinds)
    }
}

/// One confirmed anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    pub kind: DiagnosisKind,
    /// What is sick: `"G layer 3 (ReLU)"`, `"D param 7"`, `"cgan"`, ...
    pub subject: String,
    /// Epoch where the qualifying window started.
    pub first_epoch: u64,
    /// Step where the qualifying window started (`None` for per-epoch
    /// signals, which carry no step counter).
    pub first_step: Option<u64>,
    /// Human-readable evidence.
    pub detail: String,
}

impl Diagnosis {
    /// One-line rendering used by reports and golden files.
    pub fn to_line(&self) -> String {
        let at = match self.first_step {
            Some(step) => format!("epoch {} step {}", self.first_epoch, step),
            None => format!("epoch {}", self.first_epoch),
        };
        format!(
            "{:<20} {:<24} first seen {}  ({})",
            self.kind.as_str(),
            self.subject,
            at,
            self.detail
        )
    }
}

// Rule thresholds, as tabled in DESIGN §4c.
const VANISH_L2: f64 = 1e-8; // a backward ℓ2 below this is "vanished"...
const VANISH_CONTEXT_L2: f64 = 1e-3; // ...while another layer of the pass exceeds this
const VANISH_PASSES: usize = 2; // consecutive sampled passes
const EXPLODE_RATIO: f64 = 1.0; // update/weight ratio at or above this overshoots...
const EXPLODE_WEIGHT_FLOOR: f64 = 1e-6; // ...for ‖w‖ above this (fresh biases are exempt)
const EXPLODE_STEPS: usize = 3; // consecutive sampled optimizer steps
const DEAD_ZERO_FRAC: f64 = 0.995; // zero fraction at or above this is dead
const DEAD_MIN_PASSES: usize = 2; // sampled observations, all dead
const D_OVERPOWER_ACC: f64 = 0.95; // real *and* fake D accuracy above this
const D_OVERPOWER_EPOCHS: usize = 3; // consecutive epochs
/// Generator batch-std below this counts as collapsed; the online
/// `--abort-on collapse` check reads it too.
pub const COLLAPSE_DIVERSITY: f64 = 1e-3;
/// Consecutive collapsed epochs before `mode-collapse` fires.
pub const COLLAPSE_EPOCHS: usize = 2;

/// Tracks a consecutive-hit window and remembers where it started.
///
/// This is the core of every streak-based rule here, and is public so
/// other streak detectors (the ledger's cross-run drift gate) can reuse
/// it — for those, the "epoch" slot simply carries whatever ordinal the
/// series is indexed by.
#[derive(Debug, Default, Clone, Copy)]
pub struct Streak {
    /// Current consecutive-hit count (0 after a miss).
    pub len: usize,
    /// Epoch of the first hit in the current streak.
    pub start_epoch: u64,
    /// Step of the first hit in the current streak.
    pub start_step: u64,
}

impl Streak {
    /// Returns true exactly once, when the streak first reaches `need`.
    pub fn hit(&mut self, epoch: u64, step: u64, need: usize) -> bool {
        if self.len == 0 {
            self.start_epoch = epoch;
            self.start_step = step;
        }
        self.len += 1;
        self.len == need
    }

    /// Resets the streak.
    pub fn miss(&mut self) {
        self.len = 0;
    }
}

/// Runs all six rules over a decoded stream.
///
/// Records are expected in file order (training order); the rules are
/// streak-based, so shuffled input would produce nonsense.
pub fn diagnose(records: &[HealthRecord]) -> Vec<Diagnosis> {
    let mut out = Vec::new();
    nan_poisoned(records, &mut out);
    vanishing_gradient(records, &mut out);
    exploding_update(records, &mut out);
    dead_layer(records, &mut out);
    gan_rules(records, &mut out);
    out.sort_by(|a, b| (a.kind, &a.subject).cmp(&(b.kind, &b.subject)));
    out
}

fn nan_poisoned(records: &[HealthRecord], out: &mut Vec<Diagnosis>) {
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    let mut push = |subject: String, epoch: u64, step: Option<u64>, detail: String| {
        if seen.insert(subject.clone(), ()).is_none() {
            out.push(Diagnosis {
                kind: DiagnosisKind::NanPoisoned,
                subject,
                first_epoch: epoch,
                first_step: step,
                detail,
            });
        }
    };
    for rec in records {
        match rec {
            HealthRecord::Layer(r) if r.is_poisoned() => push(
                format!("{} {}", r.net, r.pass.as_str()),
                r.epoch,
                Some(r.step),
                format!(
                    "layer {} ({}) carried {} NaN / {} Inf elements",
                    r.layer, r.name, r.nan, r.inf
                ),
            ),
            HealthRecord::Gan(g) if !g.g_loss.is_finite() || !g.d_loss.is_finite() => push(
                "cgan losses".to_string(),
                g.epoch,
                None,
                format!("g_loss={} d_loss={}", g.g_loss, g.d_loss),
            ),
            HealthRecord::Center(c) if !c.mse.is_finite() => push(
                "center loss".to_string(),
                c.epoch,
                None,
                format!("mse={}", c.mse),
            ),
            _ => {}
        }
    }
}

fn vanishing_gradient(records: &[HealthRecord], out: &mut Vec<Diagnosis>) {
    // Group backward records into passes keyed by (net, step) so a
    // layer's ℓ2 can be judged against the healthiest layer of its own
    // pass. File order within a pass is preserved.
    let mut streaks: BTreeMap<(String, u64), (Streak, String)> = BTreeMap::new();
    let mut done: BTreeMap<(String, u64), ()> = BTreeMap::new();
    let mut pass: Vec<&crate::record::LayerRecord> = Vec::new();
    let mut pass_key: Option<(String, u64)> = None;

    let mut flush = |pass: &mut Vec<&crate::record::LayerRecord>| {
        let max_l2 = pass.iter().fold(0.0f64, |m, r| m.max(r.l2));
        for r in pass.iter() {
            let key = (r.net.clone(), r.layer);
            if done.contains_key(&key) {
                continue;
            }
            let entry = streaks
                .entry(key.clone())
                .or_insert_with(|| (Streak::default(), r.name.clone()));
            if r.l2 < VANISH_L2 && max_l2 > VANISH_CONTEXT_L2 {
                if entry.0.hit(r.epoch, r.step, VANISH_PASSES) {
                    done.insert(key, ());
                    out.push(Diagnosis {
                        kind: DiagnosisKind::VanishingGradient,
                        subject: format!("{} layer {} ({})", r.net, r.layer, entry.1),
                        first_epoch: entry.0.start_epoch,
                        first_step: Some(entry.0.start_step),
                        detail: format!(
                            "grad l2 {:.1e} while pass max {:.1e}, {} consecutive sampled passes",
                            r.l2, max_l2, VANISH_PASSES
                        ),
                    });
                }
            } else {
                entry.0.miss();
            }
        }
        pass.clear();
    };

    for rec in records {
        if let HealthRecord::Layer(r) = rec {
            if r.pass != Pass::Backward {
                continue;
            }
            let key = (r.net.clone(), r.step);
            if pass_key.as_ref() != Some(&key) {
                flush(&mut pass);
                pass_key = Some(key);
            }
            pass.push(r);
        }
    }
    flush(&mut pass);
}

fn exploding_update(records: &[HealthRecord], out: &mut Vec<Diagnosis>) {
    let mut streaks: BTreeMap<(String, u64), Streak> = BTreeMap::new();
    let mut done: BTreeMap<(String, u64), ()> = BTreeMap::new();
    for rec in records {
        let HealthRecord::Update(r) = rec else {
            continue;
        };
        let key = (r.net.clone(), r.param);
        if done.contains_key(&key) {
            continue;
        }
        let streak = streaks.entry(key.clone()).or_default();
        if r.ratio >= EXPLODE_RATIO && r.weight_l2 > EXPLODE_WEIGHT_FLOOR {
            if streak.hit(r.epoch, r.step, EXPLODE_STEPS) {
                done.insert(key, ());
                out.push(Diagnosis {
                    kind: DiagnosisKind::ExplodingUpdate,
                    subject: format!("{} param {}", r.net, r.param),
                    first_epoch: streak.start_epoch,
                    first_step: Some(streak.start_step),
                    detail: format!(
                        "update/weight ratio {:.2} over {} consecutive sampled steps",
                        r.ratio, EXPLODE_STEPS
                    ),
                });
            }
        } else {
            streak.miss();
        }
    }
}

fn dead_layer(records: &[HealthRecord], out: &mut Vec<Diagnosis>) {
    // (first record, name, observations, all dead so far)
    struct Acc {
        first_epoch: u64,
        first_step: u64,
        name: String,
        passes: usize,
        all_dead: bool,
    }
    let mut accs: BTreeMap<(String, u64), Acc> = BTreeMap::new();
    for rec in records {
        let HealthRecord::Layer(r) = rec else {
            continue;
        };
        if r.pass != Pass::Forward {
            continue;
        }
        let acc = accs.entry((r.net.clone(), r.layer)).or_insert(Acc {
            first_epoch: r.epoch,
            first_step: r.step,
            name: r.name.clone(),
            passes: 0,
            all_dead: true,
        });
        acc.passes += 1;
        acc.all_dead &= r.zero_frac >= DEAD_ZERO_FRAC;
    }
    for ((net, layer), acc) in accs {
        if acc.all_dead && acc.passes >= DEAD_MIN_PASSES {
            out.push(Diagnosis {
                kind: DiagnosisKind::DeadLayer,
                subject: format!("{} layer {} ({})", net, layer, acc.name),
                first_epoch: acc.first_epoch,
                first_step: Some(acc.first_step),
                detail: format!(
                    "zero fraction ≥ {} on all {} sampled passes",
                    DEAD_ZERO_FRAC, acc.passes
                ),
            });
        }
    }
}

fn gan_rules(records: &[HealthRecord], out: &mut Vec<Diagnosis>) {
    let mut overpower = Streak::default();
    let mut overpower_done = false;
    let mut collapse = Streak::default();
    let mut collapse_done = false;
    for rec in records {
        let HealthRecord::Gan(g) = rec else {
            continue;
        };
        if !overpower_done {
            if g.d_real_acc > D_OVERPOWER_ACC && g.d_fake_acc > D_OVERPOWER_ACC {
                if overpower.hit(g.epoch, 0, D_OVERPOWER_EPOCHS) {
                    overpower_done = true;
                    out.push(Diagnosis {
                        kind: DiagnosisKind::DOverpowersG,
                        subject: "discriminator".to_string(),
                        first_epoch: overpower.start_epoch,
                        first_step: None,
                        detail: format!(
                            "real/fake accuracy {:.2}/{:.2} > {} for {} consecutive epochs",
                            g.d_real_acc, g.d_fake_acc, D_OVERPOWER_ACC, D_OVERPOWER_EPOCHS
                        ),
                    });
                }
            } else {
                overpower.miss();
            }
        }
        if !collapse_done {
            if g.diversity < COLLAPSE_DIVERSITY {
                if collapse.hit(g.epoch, 0, COLLAPSE_EPOCHS) {
                    collapse_done = true;
                    out.push(Diagnosis {
                        kind: DiagnosisKind::ModeCollapse,
                        subject: "generator".to_string(),
                        first_epoch: collapse.start_epoch,
                        first_step: None,
                        detail: format!(
                            "output diversity {:.1e} < {:.1e} for {} consecutive epochs",
                            g.diversity, COLLAPSE_DIVERSITY, COLLAPSE_EPOCHS
                        ),
                    });
                }
            } else {
                collapse.miss();
            }
        }
    }
}

/// Conditions the *training loop itself* can watch to abort a doomed run
/// early (`--abort-on nan,collapse`). A subset of the diagnoses: only
/// the ones detectable online with certainty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCondition {
    /// Abort on the first NaN/Inf sentinel anywhere.
    Nan,
    /// Abort when generator diversity collapses for
    /// [`COLLAPSE_EPOCHS`] consecutive epochs.
    Collapse,
}

impl AbortCondition {
    pub fn as_str(self) -> &'static str {
        match self {
            AbortCondition::Nan => "nan",
            AbortCondition::Collapse => "collapse",
        }
    }

    /// Parses a comma-separated `--abort-on` list.
    ///
    /// # Errors
    ///
    /// Returns the first unrecognized name.
    pub fn parse_list(s: &str) -> Result<Vec<AbortCondition>, String> {
        let mut conds = Vec::new();
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let cond = match part.trim() {
                "nan" => AbortCondition::Nan,
                "collapse" => AbortCondition::Collapse,
                other => return Err(format!("unknown abort condition {other:?}")),
            };
            if !conds.contains(&cond) {
                conds.push(cond);
            }
        }
        Ok(conds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CenterEpochRecord, GanEpochRecord, LayerRecord, UpdateRecord};

    fn bwd(net: &str, step: u64, layer: u64, l2: f64) -> HealthRecord {
        HealthRecord::Layer(LayerRecord {
            net: net.into(),
            pass: Pass::Backward,
            epoch: step / 10,
            step,
            layer,
            name: format!("L{layer}"),
            count: 32,
            mean: 0.0,
            std: 0.1,
            l2,
            abs_max: 0.2,
            zero_frac: 0.0,
            nan: 0,
            inf: 0,
        })
    }

    fn fwd(net: &str, step: u64, layer: u64, zero_frac: f64, nan: u64) -> HealthRecord {
        HealthRecord::Layer(LayerRecord {
            net: net.into(),
            pass: Pass::Forward,
            epoch: step / 10,
            step,
            layer,
            name: "ReLU".into(),
            count: 32,
            mean: 0.1,
            std: 0.1,
            l2: 1.0,
            abs_max: 0.5,
            zero_frac,
            nan,
            inf: 0,
        })
    }

    fn update(step: u64, param: u64, ratio: f64, weight_l2: f64) -> HealthRecord {
        HealthRecord::Update(UpdateRecord {
            net: "G".into(),
            epoch: step / 10,
            step,
            param,
            update_l2: ratio * weight_l2,
            weight_l2,
            ratio,
        })
    }

    fn gan(epoch: u64, acc: f64, diversity: f64) -> HealthRecord {
        HealthRecord::Gan(GanEpochRecord {
            epoch,
            d_real_acc: acc,
            d_fake_acc: acc,
            g_loss: 1.0,
            d_loss: 0.5,
            loss_ratio: 0.5,
            diversity,
        })
    }

    fn kinds(diags: &[Diagnosis]) -> Vec<DiagnosisKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn healthy_stream_is_clean() {
        let recs = vec![
            fwd("G", 1, 0, 0.3, 0),
            bwd("G", 1, 0, 0.5),
            fwd("G", 9, 0, 0.4, 0),
            bwd("G", 9, 0, 0.4),
            update(1, 0, 1e-3, 1.0),
            update(9, 0, 2e-3, 1.0),
            gan(0, 0.7, 0.2),
            gan(1, 0.8, 0.18),
            HealthRecord::Center(CenterEpochRecord {
                epoch: 0,
                mse: 0.01,
                grad_norm: 0.2,
            }),
        ];
        assert!(diagnose(&recs).is_empty());
    }

    #[test]
    fn nan_poisoned_reports_first_step() {
        let recs = vec![
            fwd("G", 4, 1, 0.2, 0),
            fwd("G", 12, 1, 0.2, 5),
            fwd("G", 20, 1, 0.2, 9),
        ];
        let diags = diagnose(&recs);
        assert_eq!(kinds(&diags), vec![DiagnosisKind::NanPoisoned]);
        assert_eq!(diags[0].first_step, Some(12));
        assert!(diags[0].to_line().contains("nan-poisoned"));
    }

    #[test]
    fn vanishing_gradient_needs_consecutive_passes_with_context() {
        // Layer 0 vanished twice in a row while layer 2 stays healthy.
        let recs = vec![
            bwd("G", 8, 2, 0.5),
            bwd("G", 8, 1, 0.01),
            bwd("G", 8, 0, 1e-9),
            bwd("G", 16, 2, 0.4),
            bwd("G", 16, 1, 0.01),
            bwd("G", 16, 0, 1e-10),
        ];
        let diags = diagnose(&recs);
        assert_eq!(kinds(&diags), vec![DiagnosisKind::VanishingGradient]);
        assert_eq!(diags[0].first_epoch, 0);
        assert_eq!(diags[0].first_step, Some(8));
        assert!(diags[0].subject.contains("G layer 0"));

        // A single vanished pass, or a globally quiet pass, is not enough.
        let single = diagnose(&recs[..3]);
        assert!(single.is_empty());
        let quiet = vec![bwd("G", 8, 0, 1e-9), bwd("G", 16, 0, 1e-9)];
        assert!(diagnose(&quiet).is_empty(), "no healthy context layer");
    }

    #[test]
    fn exploding_update_needs_three_consecutive_steps() {
        let recs = vec![
            update(8, 3, 1.5, 0.5),
            update(16, 3, 2.0, 0.5),
            update(24, 3, 3.0, 0.5),
        ];
        let diags = diagnose(&recs);
        assert_eq!(kinds(&diags), vec![DiagnosisKind::ExplodingUpdate]);
        assert_eq!(diags[0].first_step, Some(8));

        // Streak broken in the middle → no diagnosis.
        let broken = vec![
            update(8, 3, 1.5, 0.5),
            update(16, 3, 0.001, 0.5),
            update(24, 3, 2.0, 0.5),
            update(32, 3, 2.0, 0.5),
        ];
        assert!(diagnose(&broken).is_empty());

        // Tiny weights (fresh biases) are exempt.
        let fresh = vec![
            update(8, 3, 5.0, 1e-9),
            update(16, 3, 5.0, 1e-9),
            update(24, 3, 5.0, 1e-9),
        ];
        assert!(diagnose(&fresh).is_empty());
    }

    #[test]
    fn dead_layer_requires_every_sampled_pass_dead() {
        let dead = vec![fwd("D", 8, 1, 1.0, 0), fwd("D", 16, 1, 0.999, 0)];
        let diags = diagnose(&dead);
        assert_eq!(kinds(&diags), vec![DiagnosisKind::DeadLayer]);
        assert_eq!(diags[0].first_step, Some(8));
        assert!(diags[0].subject.contains("D layer 1 (ReLU)"));

        // One live pass clears it; one observation is not enough.
        let revived = vec![fwd("D", 8, 1, 1.0, 0), fwd("D", 16, 1, 0.5, 0)];
        assert!(diagnose(&revived).is_empty());
        assert!(diagnose(&dead[..1]).is_empty());
        // Dropout-like 50% zeros never qualifies.
        let dropout = vec![fwd("D", 8, 2, 0.5, 0), fwd("D", 16, 2, 0.5, 0)];
        assert!(diagnose(&dropout).is_empty());
    }

    #[test]
    fn d_overpowers_g_after_three_perfect_epochs() {
        let recs = vec![
            gan(0, 0.7, 0.2),
            gan(1, 0.99, 0.2),
            gan(2, 0.98, 0.2),
            gan(3, 0.97, 0.2),
        ];
        let diags = diagnose(&recs);
        assert_eq!(kinds(&diags), vec![DiagnosisKind::DOverpowersG]);
        assert_eq!(diags[0].first_epoch, 1);
        assert!(diagnose(&recs[..3]).is_empty());
    }

    #[test]
    fn mode_collapse_after_two_flat_epochs() {
        let recs = vec![gan(0, 0.7, 0.2), gan(1, 0.7, 1e-5), gan(2, 0.7, 1e-6)];
        let diags = diagnose(&recs);
        assert_eq!(kinds(&diags), vec![DiagnosisKind::ModeCollapse]);
        assert_eq!(diags[0].first_epoch, 1);
        assert!(diagnose(&recs[..2]).is_empty());
    }

    #[test]
    fn all_six_can_fire_together_and_sort_stably() {
        let mut recs = vec![
            // dead layer + nan
            fwd("G", 8, 0, 1.0, 1),
            fwd("G", 16, 0, 1.0, 1),
            // vanishing gradient with context
            bwd("G", 8, 1, 1e-9),
            bwd("G", 8, 2, 0.5),
            bwd("G", 16, 1, 1e-9),
            bwd("G", 16, 2, 0.5),
            // exploding update
            update(8, 0, 2.0, 0.5),
            update(16, 0, 2.0, 0.5),
            update(24, 0, 2.0, 0.5),
        ];
        for e in 0..4 {
            recs.push(gan(e, 0.99, 1e-6));
        }
        let diags = diagnose(&recs);
        let mut got = kinds(&diags);
        got.dedup();
        assert_eq!(
            got,
            vec![
                DiagnosisKind::NanPoisoned,
                DiagnosisKind::VanishingGradient,
                DiagnosisKind::ExplodingUpdate,
                DiagnosisKind::DeadLayer,
                DiagnosisKind::DOverpowersG,
                DiagnosisKind::ModeCollapse,
            ]
        );
    }

    #[test]
    fn parse_lists() {
        assert_eq!(
            DiagnosisKind::parse_list("nan, dead-layer").unwrap(),
            vec![DiagnosisKind::NanPoisoned, DiagnosisKind::DeadLayer]
        );
        assert!(DiagnosisKind::parse_list("bogus").is_err());
        assert_eq!(
            AbortCondition::parse_list("nan,collapse").unwrap(),
            vec![AbortCondition::Nan, AbortCondition::Collapse]
        );
        assert!(AbortCondition::parse_list("dead-layer").is_err());
        assert_eq!(AbortCondition::Nan.as_str(), "nan");
    }
}
