//! Bridges the `litho-nn` [`StatsHook`] machinery to the `litho-health`
//! record stream.
//!
//! A [`HealthMonitor`] owns the `health.jsonl` writer for one training
//! run. [`crate::Cgan::attach_health`] / [`crate::CenterCnn::attach_health`]
//! install per-network layer hooks (`"G"`, `"D"`, `"C"`), enable
//! optimizer update tracking on sampled steps, and emit per-epoch GAN
//! balance / regression signals. With [`HealthConfig::abort_on`] set,
//! the training loops bail with [`TensorError::Aborted`] as soon as an
//! online-detectable failure mode (NaN poison, mode collapse) fires.

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use litho_health::diagnose::{COLLAPSE_DIVERSITY, COLLAPSE_EPOCHS};
use litho_health::record::NetId;
use litho_health::{
    AbortCondition, CenterEpochRecord, GanEpochRecord, HealthRecord, HealthWriter, LayerRecord,
    Pass, UpdateRecord,
};
use litho_nn::{Optimizer, Sequential, StatsHook, TensorStats};
use litho_tensor::{Result, Tensor, TensorError};

/// Model-health sampling configuration for one training run.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Sample every Nth training step (per network). Stride 1 samples
    /// everything; the default keeps overhead under 5% of step time.
    pub stride: u64,
    /// Failure modes that abort training when detected online.
    pub abort_on: Vec<AbortCondition>,
    /// Fault injection: poison one generator weight with NaN at the
    /// start of this epoch (testing the NaN pipeline end to end).
    pub poison_nan_at_epoch: Option<usize>,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            stride: 8,
            abort_on: Vec::new(),
            poison_nan_at_epoch: None,
        }
    }
}

/// Shared by the monitor, every layer hook, and every training loop.
#[derive(Debug)]
struct MonitorState {
    writer: HealthWriter,
    /// Current 0-based epoch, stamped into every record.
    epoch: u64,
    /// Set as soon as any sampled tensor carries NaN/Inf.
    poisoned: bool,
}

/// Owner of one run's `health.jsonl` stream.
#[derive(Debug)]
pub struct HealthMonitor {
    shared: Arc<Mutex<MonitorState>>,
    config: HealthConfig,
}

impl HealthMonitor {
    /// Creates (truncates) `path` and the monitor writing to it.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &Path, config: HealthConfig) -> io::Result<HealthMonitor> {
        Ok(HealthMonitor {
            shared: Arc::new(Mutex::new(MonitorState {
                writer: HealthWriter::create(path)?,
                epoch: 0,
                poisoned: false,
            })),
            config,
        })
    }

    /// Flushes buffered records to disk (also called on drop of the
    /// underlying writer).
    pub fn flush(&self) {
        if let Ok(mut st) = self.shared.lock() {
            st.writer.flush();
        }
    }

    /// Whether any sampled tensor so far carried NaN/Inf.
    pub fn poisoned(&self) -> bool {
        self.shared.lock().map(|st| st.poisoned).unwrap_or(false)
    }

    /// A boxed per-layer hook for one network, ready for
    /// [`Sequential::set_stats_hook`].
    pub(crate) fn layer_hook(&self, net: &'static str) -> Box<dyn StatsHook> {
        Box::new(NetHook {
            net,
            stride: self.config.stride.max(1),
            step: 0,
            sampled: false,
            shared: Arc::clone(&self.shared),
        })
    }

    pub(crate) fn loop_state(&self, net: &'static str) -> LoopHealth {
        LoopHealth {
            net,
            shared: Arc::clone(&self.shared),
            stride: self.config.stride.max(1),
            abort_on: self.config.abort_on.clone(),
            poison_nan_at_epoch: self.config.poison_nan_at_epoch,
            step: 0,
            signals: GanSignals::default(),
            collapse_streak: 0,
        }
    }
}

/// The [`StatsHook`] installed on one network: stride-samples passes and
/// streams [`LayerRecord`]s.
#[derive(Debug)]
struct NetHook {
    net: &'static str,
    stride: u64,
    /// Forward passes seen (the hook's own step clock).
    step: u64,
    /// Whether the current forward/backward pair is sampled.
    sampled: bool,
    shared: Arc<Mutex<MonitorState>>,
}

impl NetHook {
    fn record(&self, pass: Pass, index: usize, name: &str, stats: &TensorStats) {
        let Ok(mut st) = self.shared.lock() else {
            return;
        };
        if stats.is_poisoned() {
            st.poisoned = true;
        }
        let epoch = st.epoch;
        let record = LayerRecord {
            net: self.net.to_string(),
            pass,
            epoch,
            step: self.step,
            layer: index as u64,
            name: name.to_string(),
            count: stats.count as u64,
            mean: stats.mean as f64,
            std: stats.std as f64,
            l2: stats.l2 as f64,
            abs_max: stats.abs_max as f64,
            zero_frac: stats.zero_frac as f64,
            nan: stats.nan_count as u64,
            inf: stats.inf_count as u64,
        };
        // Crash forensics keeps the freshest snapshot per layer so an
        // incident bundle can show the net's state at death.
        crate::incident::record_layer_stats(&record);
        st.writer.append(&HealthRecord::Layer(record));
    }
}

impl StatsHook for NetHook {
    fn begin_forward(&mut self, _num_layers: usize) -> bool {
        self.step += 1;
        self.sampled = self.step.is_multiple_of(self.stride);
        self.sampled
    }

    fn on_activation(&mut self, index: usize, name: &str, stats: &TensorStats) {
        self.record(Pass::Forward, index, name, stats);
    }

    fn begin_backward(&mut self, _num_layers: usize) -> bool {
        self.sampled
    }

    fn on_gradient(&mut self, index: usize, name: &str, stats: &TensorStats) {
        self.record(Pass::Backward, index, name, stats);
    }
}

/// Per-epoch GAN signal accumulators (reset each epoch).
#[derive(Debug, Clone, Copy, Default)]
struct GanSignals {
    real_hits: u64,
    real_total: u64,
    fake_hits: u64,
    fake_total: u64,
    diversity_sum: f64,
    diversity_batches: u64,
}

/// The training-loop side of the monitor, embedded in [`crate::Cgan`] /
/// [`crate::CenterCnn`]: optimizer-step sampling, per-epoch signal
/// emission and abort checks.
#[derive(Debug)]
pub(crate) struct LoopHealth {
    net: &'static str,
    shared: Arc<Mutex<MonitorState>>,
    stride: u64,
    abort_on: Vec<AbortCondition>,
    poison_nan_at_epoch: Option<usize>,
    /// Optimizer steps taken (the loop's own step clock).
    step: u64,
    signals: GanSignals,
    collapse_streak: usize,
}

impl LoopHealth {
    /// Marks the start of epoch `epoch`: stamps subsequent records and
    /// reports whether the NaN fault injection should fire now.
    pub(crate) fn begin_epoch(&mut self, epoch: usize) -> bool {
        if let Ok(mut st) = self.shared.lock() {
            st.epoch = epoch as u64;
        }
        self.poison_nan_at_epoch == Some(epoch)
    }

    /// Advances the optimizer-step clock; `true` when this step is
    /// sampled (enable update tracking before `Optimizer::step`).
    pub(crate) fn begin_step(&mut self) -> bool {
        self.step += 1;
        self.step.is_multiple_of(self.stride)
    }

    /// Streams one sampled step's update-to-weight ratios.
    pub(crate) fn record_updates(&mut self, net: NetId, opt: &dyn Optimizer) {
        let Ok(mut st) = self.shared.lock() else {
            return;
        };
        let epoch = st.epoch;
        for (i, u) in opt.update_stats().iter().enumerate() {
            st.writer.append(&HealthRecord::Update(UpdateRecord {
                net: net.clone(),
                epoch,
                step: self.step,
                param: i as u64,
                update_l2: u.update_l2 as f64,
                weight_l2: u.weight_l2 as f64,
                ratio: u.ratio as f64,
            }));
        }
    }

    /// Accumulates discriminator verdicts for one batch: `real_logits`
    /// should score positive, `fake_logits` negative.
    pub(crate) fn observe_d_batch(&mut self, real_logits: &Tensor, fake_logits: &Tensor) {
        for &v in real_logits.as_slice() {
            self.signals.real_total += 1;
            if v > 0.0 {
                self.signals.real_hits += 1;
            }
        }
        for &v in fake_logits.as_slice() {
            self.signals.fake_total += 1;
            if v < 0.0 {
                self.signals.fake_hits += 1;
            }
        }
    }

    /// Accumulates the mode-collapse proxy for one generated batch
    /// `[n, c, h, w]`: mean per-pixel standard deviation across the
    /// batch. Batches of one sample carry no diversity signal.
    pub(crate) fn observe_g_batch(&mut self, fake: &Tensor) {
        let dims = fake.dims();
        if dims.len() != 4 || dims[0] < 2 {
            return;
        }
        let n = dims[0];
        let per = fake.len() / n;
        let data = fake.as_slice();
        let mut sum_std = 0.0f64;
        for p in 0..per {
            let mut sum = 0.0f64;
            let mut sum_sq = 0.0f64;
            for s in 0..n {
                let v = data[s * per + p] as f64;
                sum += v;
                sum_sq += v * v;
            }
            let mean = sum / n as f64;
            sum_std += (sum_sq / n as f64 - mean * mean).max(0.0).sqrt();
        }
        self.signals.diversity_sum += sum_std / per as f64;
        self.signals.diversity_batches += 1;
    }

    /// Closes a cGAN epoch: writes the [`GanEpochRecord`] and runs the
    /// online abort checks.
    ///
    /// # Errors
    ///
    /// [`TensorError::Aborted`] when an armed abort condition fires.
    pub(crate) fn end_gan_epoch(&mut self, epoch: usize, g_loss: f64, d_loss: f64) -> Result<()> {
        let s = std::mem::take(&mut self.signals);
        let d_real_acc = s.real_hits as f64 / s.real_total.max(1) as f64;
        let d_fake_acc = s.fake_hits as f64 / s.fake_total.max(1) as f64;
        let diversity = if s.diversity_batches > 0 {
            s.diversity_sum / s.diversity_batches as f64
        } else {
            f64::NAN
        };
        if let Ok(mut st) = self.shared.lock() {
            st.writer.append(&HealthRecord::Gan(GanEpochRecord {
                epoch: epoch as u64,
                d_real_acc,
                d_fake_acc,
                g_loss,
                d_loss,
                loss_ratio: d_loss / (g_loss.abs() + 1e-12),
                diversity,
            }));
            st.writer.flush();
        }
        if litho_telemetry::is_enabled() {
            use litho_telemetry::Value;
            litho_telemetry::stat(
                "gan_health",
                &[
                    ("epoch", Value::U64(epoch as u64)),
                    ("d_real_acc", Value::F64(d_real_acc)),
                    ("d_fake_acc", Value::F64(d_fake_acc)),
                    ("g_loss", Value::F64(g_loss)),
                    ("d_loss", Value::F64(d_loss)),
                    ("diversity", Value::F64(diversity)),
                ],
            );
        }
        if diversity.is_finite() && diversity < COLLAPSE_DIVERSITY {
            self.collapse_streak += 1;
        } else {
            self.collapse_streak = 0;
        }
        self.check_abort(g_loss.is_finite() && d_loss.is_finite())
    }

    /// Closes a center-CNN epoch: writes the [`CenterEpochRecord`] and
    /// runs the online abort checks.
    ///
    /// # Errors
    ///
    /// [`TensorError::Aborted`] when an armed abort condition fires.
    pub(crate) fn end_center_epoch(&mut self, epoch: usize, mse: f64, grad_norm: f64) -> Result<()> {
        if let Ok(mut st) = self.shared.lock() {
            st.writer.append(&HealthRecord::Center(CenterEpochRecord {
                epoch: epoch as u64,
                mse,
                grad_norm,
            }));
            st.writer.flush();
        }
        if litho_telemetry::is_enabled() {
            use litho_telemetry::Value;
            litho_telemetry::stat(
                "center_health",
                &[
                    ("epoch", Value::U64(epoch as u64)),
                    ("mse", Value::F64(mse)),
                    ("grad_norm", Value::F64(grad_norm)),
                ],
            );
        }
        self.check_abort(mse.is_finite())
    }

    fn check_abort(&self, losses_finite: bool) -> Result<()> {
        for cond in &self.abort_on {
            match cond {
                AbortCondition::Nan => {
                    let poisoned = self.shared.lock().map(|st| st.poisoned).unwrap_or(false);
                    if poisoned || !losses_finite {
                        return Err(TensorError::Aborted(format!(
                            "nan detected in {} training",
                            self.net
                        )));
                    }
                }
                AbortCondition::Collapse => {
                    if self.collapse_streak >= COLLAPSE_EPOCHS {
                        return Err(TensorError::Aborted(format!(
                            "mode collapse: generator diversity below {} for {} epochs",
                            COLLAPSE_DIVERSITY, self.collapse_streak
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Poisons one parameter element of the network's *last* parameterized
/// layer with NaN — the `--poison-nan-at-epoch` fault injection.
///
/// The last layer is chosen deliberately: a NaN planted early in the
/// net can be silently cleansed by a downstream `ReLU` (`NaN > 0` is
/// false, so the output is 0), never reaching the loss. Poisoning the
/// output layer guarantees the fault is visible to the per-epoch loss
/// check even when the sampling stride skips every layer pass.
pub(crate) fn poison_param(seq: &mut Sequential) {
    use litho_nn::Layer;
    let mut count = 0usize;
    seq.visit_params(&mut |_| count += 1);
    let mut index = 0usize;
    seq.visit_params(&mut |p| {
        index += 1;
        if index == count {
            if let Some(v) = p.value.as_mut_slice().first_mut() {
                *v = f32::NAN;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use litho_tensor::rng::{SeedableRng, StdRng, Uniform};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lithogan_health_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn rand(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::random(dims, &Uniform::new(-1.0, 1.0), &mut rng)
    }

    fn linear(inp: usize, out: usize, seed: u64) -> litho_nn::Linear {
        let mut rng = StdRng::seed_from_u64(seed);
        litho_nn::Linear::new(inp, out, &mut rng)
    }

    #[test]
    fn monitor_streams_layer_records_through_hooks() {
        use litho_nn::{Layer, Phase, Relu};
        let path = tmp("hook.jsonl");
        let monitor = HealthMonitor::create(
            &path,
            HealthConfig {
                stride: 1,
                ..HealthConfig::default()
            },
        )
        .unwrap();
        let mut net = Sequential::new();
        net.push(linear(4, 3, 7));
        net.push(Relu::new());
        net.set_stats_hook(Some(monitor.layer_hook("G")));
        let mut lh = monitor.loop_state("G");
        assert!(!lh.begin_epoch(0));
        let x = rand(&[2, 4], 5);
        let y = net.forward(&x, Phase::Train).unwrap();
        net.backward(&Tensor::full(y.dims(), 0.1)).unwrap();
        monitor.flush();
        let parsed = litho_health::parse_health_file(&path).unwrap();
        // 2 layers forward + 2 backward.
        assert_eq!(parsed.records.len(), 4);
        assert!(!monitor.poisoned());
    }

    #[test]
    fn stride_skips_unsampled_steps() {
        use litho_nn::{Layer, Phase};
        let path = tmp("stride.jsonl");
        let monitor = HealthMonitor::create(
            &path,
            HealthConfig {
                stride: 4,
                ..HealthConfig::default()
            },
        )
        .unwrap();
        let mut net = Sequential::new();
        net.push(linear(4, 3, 7));
        net.set_stats_hook(Some(monitor.layer_hook("G")));
        let x = rand(&[1, 4], 5);
        for _ in 0..8 {
            net.forward(&x, Phase::Train).unwrap();
        }
        monitor.flush();
        let parsed = litho_health::parse_health_file(&path).unwrap();
        // Steps 4 and 8 sampled, one layer each.
        assert_eq!(parsed.records.len(), 2);
    }

    #[test]
    fn nan_epoch_aborts_when_armed() {
        let path = tmp("abort.jsonl");
        let monitor = HealthMonitor::create(
            &path,
            HealthConfig {
                abort_on: vec![AbortCondition::Nan],
                ..HealthConfig::default()
            },
        )
        .unwrap();
        let mut lh = monitor.loop_state("G");
        lh.begin_epoch(0);
        assert!(lh.end_gan_epoch(0, 1.0, 0.5).is_ok());
        let err = lh.end_gan_epoch(1, f64::NAN, 0.5).unwrap_err();
        assert!(matches!(err, TensorError::Aborted(ref r) if r.contains("nan")));
    }

    #[test]
    fn collapse_streak_aborts_when_armed() {
        let path = tmp("collapse.jsonl");
        let monitor = HealthMonitor::create(
            &path,
            HealthConfig {
                abort_on: vec![AbortCondition::Collapse],
                ..HealthConfig::default()
            },
        )
        .unwrap();
        let mut lh = monitor.loop_state("G");
        lh.begin_epoch(0);
        // Two consecutive near-zero-diversity epochs trip the default
        // threshold (collapse_epochs = 2).
        let flat = Tensor::full(&[2, 1, 4, 4], 0.5);
        lh.observe_g_batch(&flat);
        assert!(lh.end_gan_epoch(0, 1.0, 0.5).is_ok());
        lh.observe_g_batch(&flat);
        let err = lh.end_gan_epoch(1, 1.0, 0.5).unwrap_err();
        assert!(matches!(err, TensorError::Aborted(ref r) if r.contains("collapse")));
    }

    #[test]
    fn d_batch_accuracy_and_diversity_accumulate() {
        let path = tmp("signals.jsonl");
        let monitor = HealthMonitor::create(&path, HealthConfig::default()).unwrap();
        let mut lh = monitor.loop_state("G");
        lh.begin_epoch(0);
        let real = Tensor::from_vec(vec![2.0, -1.0], &[2, 1]).unwrap();
        let fake = Tensor::from_vec(vec![-2.0, -3.0], &[2, 1]).unwrap();
        lh.observe_d_batch(&real, &fake);
        let diverse = rand(&[2, 1, 4, 4], 3);
        lh.observe_g_batch(&diverse);
        lh.end_gan_epoch(0, 1.0, 0.5).unwrap();
        monitor.flush();
        let parsed = litho_health::parse_health_file(&path).unwrap();
        assert_eq!(parsed.records.len(), 1);
        match &parsed.records[0] {
            HealthRecord::Gan(g) => {
                assert!((g.d_real_acc - 0.5).abs() < 1e-9);
                assert!((g.d_fake_acc - 1.0).abs() < 1e-9);
                assert!(g.diversity > 0.0);
            }
            other => panic!("expected gan record, got {other:?}"),
        }
    }

    #[test]
    fn poison_param_survives_a_relu_sandwich() {
        use litho_nn::{Layer, Phase, Relu};
        // An early-layer NaN would be cleansed by the ReLU; the fault
        // must land past it to reach the output.
        let mut net = Sequential::new();
        net.push(linear(4, 3, 7));
        net.push(Relu::new());
        net.push(linear(3, 2, 9));
        poison_param(&mut net);
        let y = net
            .forward(&rand(&[1, 4], 5), Phase::Eval)
            .unwrap();
        assert!(y.as_slice().iter().any(|v| v.is_nan()));
    }
}
