//! Shared experiment harness for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md §4 for the index). They share:
//!
//! * [`Scale`] — the experiment scale (clip count, image size, epochs,
//!   seed repetitions), parsed from CLI flags: `--quick` for smoke runs,
//!   `--paper` for the full published scale (CPU-days; see DESIGN.md's
//!   substitution table), default otherwise.
//! * [`dataset`] — cached dataset generation per node.
//! * [`train_all`] / [`Trained`] — the three models of Table 3 (Ref \[12\]
//!   baseline, CGAN, LithoGAN) trained on the same split.
//! * [`evaluate`] — [`MetricAccumulator`]-based scoring of a method.

pub mod microbench;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use litho_dataset::{generate, load_dataset, save_dataset, Dataset, DatasetConfig, Sample};
use litho_ledger::{fingerprint_file, DatasetInfo, RunLedger};
use litho_metrics::{MetricAccumulator, MetricSummary};
use litho_sim::ProcessConfig;
use litho_tensor::{Result, Tensor};
use lithogan::{Cgan, LithoGan, NetConfig, ThresholdBaseline, TrainConfig, TrainPair};

/// A benchmark node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// The 10 nm-node dataset (982 clips in the paper).
    N10,
    /// The 7 nm-node dataset (979 clips in the paper).
    N7,
}

impl Node {
    /// Both nodes, in paper order.
    pub const ALL: [Node; 2] = [Node::N10, Node::N7];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Node::N10 => "N10",
            Node::N7 => "N7",
        }
    }

    /// Process configuration.
    pub fn process(self) -> ProcessConfig {
        match self {
            Node::N10 => ProcessConfig::n10(),
            Node::N7 => ProcessConfig::n7(),
        }
    }

    /// Clip count used in the paper.
    pub fn paper_clip_count(self) -> usize {
        match self {
            Node::N10 => 982,
            Node::N7 => 979,
        }
    }
}

/// Experiment scale. The paper's absolute scale (256 × 256, 80 epochs,
/// 982 clips, TITAN Xp) is out of reach for a pure-CPU Rust stack, so the
/// default reproduces the experiment *shapes* at reduced resolution; the
/// `--paper` flag constructs the full-scale configuration for users with
/// the budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Human-readable label printed in reports.
    pub label: String,
    /// Clips per node (`None` = the paper's count).
    pub clip_count: Option<usize>,
    /// Image resolution (mask and golden windows).
    pub image_size: usize,
    /// Training epochs for every model.
    pub epochs: usize,
    /// Independent seeds to average over (paper: 5).
    pub seeds: usize,
}

impl Scale {
    /// Smoke-test scale: a few minutes end to end. 64 px is the minimum
    /// resolution at which the mask-write-jitter centre signal survives
    /// golden-window quantisation (2 nm/px), so the dual-learning
    /// comparison stays meaningful even on quick runs.
    pub fn quick() -> Self {
        Scale {
            label: "quick".into(),
            clip_count: Some(60),
            image_size: 64,
            epochs: 8,
            seeds: 1,
        }
    }

    /// Default scale: minutes-per-experiment on a multicore CPU.
    pub fn standard() -> Self {
        Scale {
            label: "standard".into(),
            clip_count: Some(140),
            image_size: 64,
            epochs: 10,
            seeds: 1,
        }
    }

    /// The paper's published scale (very slow on CPU).
    pub fn paper() -> Self {
        Scale {
            label: "paper".into(),
            clip_count: None,
            image_size: 256,
            epochs: 80,
            seeds: 5,
        }
    }

    /// Parses `--quick` / `--paper` / `--seeds=N` / `--epochs=N` /
    /// `--clips=N` from the process arguments; default is
    /// [`Scale::standard`]. Also opens a run ledger under `runs/` (opt
    /// out with `--no-run`, relocate with `--runs-root=DIR`) and honours
    /// the observability flags (`--trace`, `--metrics-out FILE`) via
    /// [`init_telemetry_from_args`], so every experiment binary gets them
    /// for free — pair with a [`finish_telemetry`] call at the end of
    /// `main`.
    pub fn from_args() -> Self {
        let mut scale = Scale::standard();
        let mut runs_root = "runs".to_string();
        let mut no_run = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--quick" => scale = Scale::quick(),
                "--paper" => scale = Scale::paper(),
                "--no-run" => no_run = true,
                other => {
                    if let Some(v) = other.strip_prefix("--seeds=") {
                        scale.seeds = v.parse().expect("--seeds=N");
                    } else if let Some(v) = other.strip_prefix("--epochs=") {
                        scale.epochs = v.parse().expect("--epochs=N");
                    } else if let Some(v) = other.strip_prefix("--clips=") {
                        scale.clip_count = Some(v.parse().expect("--clips=N"));
                    } else if let Some(v) = other.strip_prefix("--runs-root=") {
                        runs_root = v.to_string();
                    }
                }
            }
        }
        if !no_run {
            open_run_ledger(&runs_root, &scale);
        }
        init_telemetry_from_args(&[("scale", litho_telemetry::Value::Str(scale.label.clone()))]);
        scale
    }

    /// Dataset configuration for a node at this scale.
    pub fn dataset_config(&self, node: Node) -> DatasetConfig {
        let count = self.clip_count.unwrap_or_else(|| node.paper_clip_count());
        DatasetConfig::scaled(node.process(), count, self.image_size)
    }

    /// Network configuration at this scale.
    pub fn net_config(&self) -> NetConfig {
        if self.image_size == 256 {
            NetConfig::paper()
        } else {
            NetConfig::scaled(self.image_size)
        }
    }

    /// Training configuration at this scale, for seed repetition `seed`.
    pub fn train_config(&self, seed: u64) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            seed,
            ..TrainConfig::paper()
        }
    }
}

static TRACE_REQUESTED: AtomicBool = AtomicBool::new(false);
static RUN_LEDGER: Mutex<Option<RunLedger>> = Mutex::new(None);

/// Opens the run ledger for this bench invocation: manifest under
/// `<root>/<bin>-<unix>-<pid>/` with the scale as config. Failure is
/// non-fatal (benches still run without a ledger).
fn open_run_ledger(root: &str, scale: &Scale) {
    let bin = std::env::args()
        .next()
        .as_deref()
        .map(Path::new)
        .and_then(Path::file_stem)
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "bench".to_string());
    let config = vec![
        ("scale".to_string(), scale.label.clone()),
        (
            "clips".to_string(),
            scale
                .clip_count
                .map(|c| c.to_string())
                .unwrap_or_else(|| "paper".to_string()),
        ),
        ("size".to_string(), scale.image_size.to_string()),
        ("epochs".to_string(), scale.epochs.to_string()),
        ("seeds".to_string(), scale.seeds.to_string()),
    ];
    match RunLedger::create(Path::new(root), &bin, None, config, None) {
        Ok(ledger) => {
            eprintln!("[run] {}", ledger.dir().display());
            *RUN_LEDGER.lock().unwrap() = Some(ledger);
        }
        Err(e) => eprintln!("[run] ledger disabled: {e}"),
    }
}

/// Enables telemetry when `--trace` / `--metrics-out FILE` appear in the
/// process arguments or a run ledger is active, wiring a JSONL sink
/// (`--metrics-out` path, else the run's `trace.jsonl`), and emits the
/// run-metadata event (binary name, platform, thread count, `extra`).
/// A no-op when neither flags nor ledger are present.
pub fn init_telemetry_from_args(extra: &[(&str, litho_telemetry::Value)]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().any(|a| a == "--trace");
    let metrics_out = args
        .windows(2)
        .find(|w| w[0] == "--metrics-out")
        .map(|w| w[1].clone());
    let mut guard = RUN_LEDGER.lock().unwrap();
    if !trace && metrics_out.is_none() && guard.is_none() {
        return;
    }
    let sink_path = metrics_out
        .clone()
        .map(PathBuf::from)
        .or_else(|| guard.as_ref().map(RunLedger::default_trace_path));
    if let Some(path) = sink_path {
        match litho_telemetry::JsonlSink::create(&path) {
            Ok(sink) => litho_telemetry::set_sink(Some(Box::new(sink))),
            Err(e) => eprintln!("[telemetry] cannot open {}: {e}", path.display()),
        }
    }
    if let Some(ledger) = guard.as_mut() {
        // An explicit --metrics-out path lives outside the run dir;
        // record it as given so `report` still finds the stream.
        let trace_path = metrics_out.unwrap_or_else(|| "trace.jsonl".to_string());
        if let Err(e) = ledger.set_trace_path(&trace_path) {
            eprintln!("[run] cannot record trace path: {e}");
        }
        litho_telemetry::set_run_id(Some(ledger.run_id()));
    }
    drop(guard);
    TRACE_REQUESTED.store(trace, Ordering::Relaxed);
    litho_telemetry::enable();
    litho_telemetry::emit_run_metadata(extra);
}

/// Flushes telemetry sinks, finalizes the run ledger (status `ok`) and,
/// when `--trace` was given, prints the span/metric report to stderr.
/// Call at the end of `main`.
pub fn finish_telemetry() {
    litho_telemetry::flush();
    if let Some(ledger) = RUN_LEDGER.lock().unwrap().as_mut() {
        if let Err(e) = ledger.finalize(true) {
            eprintln!("[run] cannot finalize ledger: {e}");
        }
    }
    if litho_telemetry::is_enabled() && TRACE_REQUESTED.load(Ordering::Relaxed) {
        litho_telemetry::print_report();
    }
}

/// Directory for cached datasets and experiment outputs.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiment output dir");
    dir
}

/// Generates (or loads from cache) the dataset for a node at a scale.
///
/// # Errors
///
/// Propagates generation or I/O errors.
pub fn dataset(node: Node, scale: &Scale) -> Result<Dataset> {
    let config = scale.dataset_config(node);
    let cache = out_dir().join(format!(
        "{}_{}clips_{}px_seed{}.lgd",
        node.name(),
        config.clip_count,
        config.image_size,
        config.seed
    ));
    if cache.exists() {
        if let Ok(ds) = load_dataset(&cache) {
            if ds.config == config {
                attach_dataset_to_ledger(&cache, &ds);
                return Ok(ds);
            }
        }
    }
    let t0 = std::time::Instant::now();
    let (ds, stats) = generate(&config)?;
    eprintln!(
        "[data] generated {} {} samples in {:.1?} ({} retries, {} OPC unconverged)",
        ds.len(),
        node.name(),
        t0.elapsed(),
        stats.empty_golden_retries,
        stats.opc_unconverged
    );
    save_dataset(&ds, &cache)?;
    attach_dataset_to_ledger(&cache, &ds);
    Ok(ds)
}

/// Records dataset identity in the run manifest (best effort; the first
/// dataset wins for multi-node experiments — per-node identity lives in
/// the trace/config).
fn attach_dataset_to_ledger(path: &Path, ds: &Dataset) {
    let mut guard = RUN_LEDGER.lock().unwrap();
    let Some(ledger) = guard.as_mut() else { return };
    if ledger.manifest().dataset.is_some() {
        return;
    }
    let Ok((fingerprint, bytes)) = fingerprint_file(path) else { return };
    let info = DatasetInfo {
        path: path.to_string_lossy().into_owned(),
        fingerprint,
        bytes,
        samples: ds.len(),
        image_size: ds.config.image_size,
        node: ds.config.process.name.clone(),
        nm_per_px: ds.config.golden_nm_per_px(),
    };
    if let Err(e) = ledger.set_dataset(info) {
        eprintln!("[run] cannot record dataset: {e}");
    }
}

/// The three models of Table 3, trained on one split with one seed.
pub struct Trained {
    /// The dual-learning LithoGAN.
    pub lithogan: LithoGan,
    /// Plain CGAN trained on *uncentred* golden targets.
    pub cgan: Cgan,
    /// The Ref. \[12\] threshold baseline.
    pub baseline: ThresholdBaseline,
}

/// Trains all three methods on the dataset's train split, caching the
/// trained weights under `target/experiments/models/` so that every
/// experiment binary at the same (node, scale, seed) shares one training
/// run.
///
/// # Errors
///
/// Propagates training errors.
pub fn train_all(ds: &Dataset, scale: &Scale, seed: u64) -> Result<Trained> {
    use litho_nn::serialize::{load_weights_from_path, save_weights_to_path};

    let (train, _) = ds.split();
    let net = scale.net_config();
    let cfg = scale.train_config(seed);

    let key = format!(
        "{}_{}clips_{}px_{}ep_seed{}",
        ds.config.process.name, ds.config.clip_count, scale.image_size, scale.epochs, seed
    );
    let model_dir = out_dir().join("models").join(key);
    std::fs::create_dir_all(&model_dir)
        .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;

    let mut lithogan = LithoGan::new(&net, seed);
    let mut cgan = Cgan::with_train_config(&net, &cfg, seed.wrapping_add(100));
    let mut baseline = ThresholdBaseline::new(
        &ds.config.process,
        &net,
        ds.config.sim_grid,
        ds.config.golden_window_nm,
        seed.wrapping_add(200),
    )?;

    // Try the cache first: all weight files plus the baseline stats.
    let stats_path = model_dir.join("baseline_stats.txt");
    let cached = load_weights_from_path(lithogan.cgan.generator_mut(), model_dir.join("lg_gen.lgw"))
        .and_then(|()| {
            load_weights_from_path(lithogan.cgan.discriminator_mut(), model_dir.join("lg_disc.lgw"))
        })
        .and_then(|()| {
            load_weights_from_path(lithogan.center.network_mut(), model_dir.join("lg_center.lgw"))
        })
        .and_then(|()| load_weights_from_path(cgan.generator_mut(), model_dir.join("cgan_gen.lgw")))
        .and_then(|()| {
            load_weights_from_path(cgan.discriminator_mut(), model_dir.join("cgan_disc.lgw"))
        })
        .and_then(|()| {
            load_weights_from_path(baseline.network_mut(), model_dir.join("baseline.lgw"))
        })
        .and_then(|()| {
            let text = std::fs::read_to_string(&stats_path)
                .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;
            let mut it = text.split_whitespace();
            let mean: f32 = it.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                litho_tensor::TensorError::InvalidArgument("bad baseline stats".into())
            })?;
            let std: f32 = it.next().and_then(|v| v.parse().ok()).ok_or_else(|| {
                litho_tensor::TensorError::InvalidArgument("bad baseline stats".into())
            })?;
            baseline.set_target_stats(mean, std);
            Ok(())
        });
    if cached.is_ok() {
        eprintln!("[train] loaded cached models from {}", model_dir.display());
        return Ok(Trained {
            lithogan,
            cgan,
            baseline,
        });
    }

    eprintln!("[train] LithoGAN ({} samples, {} epochs)", train.len(), cfg.epochs);
    lithogan.train(&train, &cfg, |_, _| {})?;

    eprintln!("[train] CGAN (uncentred targets)");
    let pairs: Vec<TrainPair> = train
        .iter()
        .map(|s| TrainPair::from_dataset(&s.mask, &s.golden))
        .collect::<Result<Vec<_>>>()?;
    cgan.train(&pairs, &cfg, |_, _| {})?;

    eprintln!("[train] Ref[12] threshold baseline");
    let mut threshold_samples = Vec::with_capacity(train.len());
    for s in &train {
        let (window, _) = baseline.aerial_window(s)?;
        let t = ThresholdBaseline::golden_thresholds(&window, &s.golden)?;
        threshold_samples.push((window, t));
    }
    baseline.train(&threshold_samples, &cfg)?;

    save_weights_to_path(lithogan.cgan.generator_mut(), model_dir.join("lg_gen.lgw"))?;
    save_weights_to_path(lithogan.cgan.discriminator_mut(), model_dir.join("lg_disc.lgw"))?;
    save_weights_to_path(lithogan.center.network_mut(), model_dir.join("lg_center.lgw"))?;
    save_weights_to_path(cgan.generator_mut(), model_dir.join("cgan_gen.lgw"))?;
    save_weights_to_path(cgan.discriminator_mut(), model_dir.join("cgan_disc.lgw"))?;
    save_weights_to_path(baseline.network_mut(), model_dir.join("baseline.lgw"))?;
    let (mean, std) = baseline.target_stats();
    std::fs::write(&stats_path, format!("{mean} {std}"))
        .map_err(|e| litho_tensor::TensorError::InvalidArgument(e.to_string()))?;

    Ok(Trained {
        lithogan,
        cgan,
        baseline,
    })
}

/// Scores a method's predictions over the test split.
///
/// `predict` maps a test sample to a `[S, S]` image in `[0, 1]`.
///
/// # Errors
///
/// Propagates prediction/metric errors.
pub fn evaluate<F>(
    test: &[&Sample],
    nm_per_px: f64,
    mut predict: F,
) -> Result<(MetricSummary, Vec<f64>)>
where
    F: FnMut(&Sample) -> Result<Tensor>,
{
    let mut acc = MetricAccumulator::new(nm_per_px);
    for s in test {
        let pred = predict(s)?;
        acc.add(&pred, &s.golden)?;
    }
    Ok((acc.summary(), acc.ede_values().to_vec()))
}

/// Formats one Table 3 row.
pub fn format_row(dataset: &str, method: &str, s: &MetricSummary) -> String {
    format!(
        "{dataset:<5} {method:<10} {:>7.2} {:>8.2} {:>10.4} {:>10.4} {:>9.4}",
        s.ede_mean_nm, s.ede_std_nm, s.pixel_accuracy, s.class_accuracy, s.mean_iou
    )
}

/// Table 3 header line.
pub fn table3_header() -> String {
    format!(
        "{:<5} {:<10} {:>7} {:>8} {:>10} {:>10} {:>9}",
        "Data", "Method", "EDE", "EDE-std", "PixelAcc", "ClassAcc", "MeanIoU"
    )
}
