//! The three workloads, the closed-loop runner and the traced pass.

use std::collections::HashMap;
use std::time::Instant;

use litho_dataset::{
    generate, load_dataset, save_dataset, Dataset, DatasetConfig, GenerationStats,
};
use litho_sim::ProcessConfig;
use litho_tensor::pool;
use litho_tensor::rng::{RngCore, SplitMix64};
use litho_tensor::{Result, Tensor, TensorError};
use lithogan::{LithoGan, NetConfig, TrainConfig};

use crate::probes::{self, OpcCounts, StepBatch};
use crate::stats::{self, Recorder};
use crate::{metric, sys, Args, Report, Scratch};

/// Workload names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["infer-256", "train-64", "datagen"];

/// Ops the closed loop runs at least, however long they take.
const MIN_OPS: u64 = 3;

/// Times the workload's setup is repeated; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Per-layer metrics read straight off span medians: (metric, span).
const SPAN_METRICS: &[(&str, &str)] = &[
    ("core.cgan.predict_ms", "core.cgan.predict"),
    ("core.center.predict_ms", "core.center.predict"),
    ("dataset.recenter_ms", "dataset.recenter"),
    ("core.cgan.step_ms", "core.cgan.step"),
    ("core.center.step_ms", "core.center.step"),
    ("nn.G.fwd_ms", "nn.G.fwd"),
    ("nn.G.bwd_ms", "nn.G.bwd"),
    ("nn.D.fwd_ms", "nn.D.fwd"),
    ("nn.D.bwd_ms", "nn.D.bwd"),
    ("nn.C.fwd_ms", "nn.C.fwd"),
    ("nn.C.bwd_ms", "nn.C.bwd"),
    ("nn.adam.G_ms", "nn.adam.G"),
    ("nn.adam.D_ms", "nn.adam.D"),
    ("nn.adam.C_ms", "nn.adam.C"),
    ("layout.clip_generate_ms", "layout.clip_generate"),
    ("layout.sraf_ms", "layout.sraf"),
    ("layout.opc_ms", "layout.opc"),
    ("layout.raster_ms", "layout.raster"),
    ("sim.simulate_ms", "sim.simulate"),
    ("sim.optical_ms", "sim.optical"),
    ("sim.resist_contour_ms", "sim.resist_contour"),
    ("sim.engine_build_ms", "sim.engine_build"),
    ("dataset.window_ms", "dataset.window"),
    ("dataset.save_ms", "dataset.save"),
    ("dataset.load_ms", "dataset.load"),
    ("nn.serialize.model_save_ms", "nn.serialize.model_save"),
    ("nn.serialize.model_load_ms", "nn.serialize.model_load"),
];

/// Derives an independent input seed for `stream` from `--seed`.
fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

fn check_err(msg: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument(msg.into())
}

/// Bookkeeping of `dataset::generate` calls, for the retry ratio and
/// the parallel-efficiency estimate.
#[derive(Debug, Default)]
struct GenLog {
    generated: usize,
    retries: usize,
    /// (clips generated, worker threads) of the latest call.
    last: (usize, usize),
}

impl GenLog {
    fn note(&mut self, config: &DatasetConfig, stats: &GenerationStats) {
        self.generated += stats.generated;
        self.retries += stats.empty_golden_retries;
        // `generate` runs one worker thread per core, capped by the clips.
        self.last = (stats.generated, sys::nproc().min(config.clip_count.max(1)));
    }
}

/// `dataset::generate` under a `dataset.generate` span, logged.
fn generate_logged(
    config: &DatasetConfig,
    log: &mut GenLog,
    rec: &mut Recorder,
) -> Result<Dataset> {
    let (dataset, stats) = rec.span("dataset.generate", |_| generate(config))?;
    log.note(config, &stats);
    Ok(dataset)
}

fn dataset_config(process: ProcessConfig, clips: usize, size: usize, seed: u64) -> DatasetConfig {
    DatasetConfig {
        seed,
        ..DatasetConfig::scaled(process, clips, size)
    }
}

/// What the traced pass learns from a workload's extra probes.
#[derive(Debug, Default)]
struct Probed {
    opc: OpcCounts,
    dataset_bytes: u64,
    model_bytes: u64,
}

/// One workload: an op the closed loop repeats, its output check, and
/// the traced split of the same op.
trait Workload {
    type Out;
    /// Spans the traced op splits into; their medians should add up to
    /// the untraced op.
    const PARTS: &'static [&'static str];
    /// Rounds of (untraced, telemetry-on, traced) ops in the traced pass.
    const TRACE_ROUNDS: u64;

    /// The timed op.
    fn op(&mut self, k: u64) -> Result<Self::Out>;
    /// The same op, split into [`Workload::PARTS`] spans.
    fn op_traced(&mut self, k: u64, rec: &mut Recorder) -> Result<Self::Out>;
    /// Checks an op's output outside the timed region; returns the items
    /// the op completed.
    fn check(&mut self, k: u64, out: Self::Out) -> std::result::Result<u64, String>;
    /// Warm-up and once-per-run checks, before anything is timed.
    fn run_checks(&mut self) -> Result<Vec<String>>;
    /// Per-layer probes beyond the op split.
    fn probes(&mut self, seed: u64, scratch: &Scratch, rec: &mut Recorder) -> Result<Probed>;
    /// The workload's `dataset::generate` log.
    fn gen_log(&self) -> &GenLog;
}

/// Runs `--workload` in the pass `--trace` selects.
pub fn run(args: &Args, scratch: &Scratch) -> Result<Report> {
    let seed = args.seed;
    match args.workload.as_str() {
        "infer-256" => drive(args, scratch, |rec| Infer::setup(seed, scratch, rec)),
        "train-64" => drive(args, scratch, |rec| Train::setup(seed, rec)),
        _ => drive(args, scratch, |rec| Datagen::setup(seed, scratch, rec)),
    }
}

fn drive<W: Workload>(
    args: &Args,
    scratch: &Scratch,
    mut setup: impl FnMut(&mut Recorder) -> Result<W>,
) -> Result<Report> {
    if args.trace {
        let mut rec = Recorder::default();
        let w = setup(&mut rec)?;
        traced(w, args, scratch, rec)
    } else {
        let (w, setup_s) = repeated_setup(|| setup(&mut Recorder::default()))?;
        end_to_end(w, args, setup_s)
    }
}

/// Repeats `setup` [`SETUP_REPS`] times and keeps the last state; returns
/// it with the median set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T>) -> litho_tensor::Result<(T, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("SETUP_REPS > 0");
    Ok((state.expect("SETUP_REPS > 0"), median))
}

/// Outcome tally of checked ops.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    items: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Checks an op's result; returns the items it completed, or `None`
    /// if it failed.
    fn add<W: Workload>(&mut self, w: &mut W, k: u64, out: Result<W::Out>) -> Option<u64> {
        self.attempted += 1;
        let verdict = out.map_err(|e| e.to_string()).and_then(|o| w.check(k, o));
        match verdict {
            Ok(items) => {
                self.items += items;
                Some(items)
            }
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(format!("op {k}: {e}"));
                }
                None
            }
        }
    }
}

/// Share of the CPUs' capacity the hypervisor may give to other guests
/// during an op (`/proc/stat` steal) before the op stops measuring this
/// program. Background steal on a shared host stays near 1%.
const STEAL_LIMIT: f64 = 0.05;

/// One successful op of the end-to-end loop.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OpSample {
    latency_ms: f64,
    items_per_s: f64,
    cpu_ms_per_item: f64,
    /// The host stole more than [`STEAL_LIMIT`] of the CPUs during it.
    stolen: bool,
}

/// The ops the timings are taken from: those the host did not steal CPU
/// from, unless fewer than [`MIN_OPS`] of them remain, in which case all.
fn timed_ops(samples: &[OpSample]) -> Vec<OpSample> {
    let clean: Vec<OpSample> = samples.iter().copied().filter(|s| !s.stolen).collect();
    if clean.len() >= MIN_OPS as usize {
        clean
    } else {
        samples.to_vec()
    }
}

/// The end-to-end pass: one closed-loop client, tracing off.
///
/// Every timing is a median over ops. On a shared virtual host the
/// hypervisor steals CPU in bursts of seconds to minutes; ops it stole
/// from are counted and checked like any other but left out of the
/// timings (see [`timed_ops`]), and a mean over the run would let a burst
/// in part of a run move the figure.
fn end_to_end<W: Workload>(mut w: W, args: &Args, setup_s: f64) -> Result<Report> {
    let mut check_failures = w.run_checks()?;
    let mut tally = Tally::default();
    let mut samples = Vec::new();
    let (mut op_s, mut cpu_s, mut steal_s) = (0.0, 0.0, 0.0);
    let capacity = sys::nproc() as f64;
    let mut k = 0;
    while op_s < args.seconds || k < MIN_OPS {
        let steal0 = sys::steal_seconds();
        let cpu0 = sys::cpu_seconds();
        let t = Instant::now();
        let out = w.op(k);
        let dt = t.elapsed().as_secs_f64();
        let cpu = sys::cpu_seconds() - cpu0;
        let stolen = sys::steal_seconds() - steal0;
        op_s += dt;
        cpu_s += cpu;
        steal_s += stolen;
        if let Some(items) = tally.add(&mut w, k, out).filter(|&n| n > 0) {
            samples.push(OpSample {
                latency_ms: dt * 1e3,
                items_per_s: items as f64 / dt,
                cpu_ms_per_item: cpu * 1e3 / items as f64,
                stolen: stolen > STEAL_LIMIT * dt * capacity,
            });
        }
        k += 1;
    }
    check_failures.append(&mut tally.failures);
    let timed = timed_ops(&samples);
    let column = |f: fn(&OpSample) -> f64| timed.iter().map(f).collect::<Vec<f64>>();
    let latencies = column(|s| s.latency_ms);
    let med = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
    let tail = stats::tail(&latencies);
    let mut notes = vec![
        format!(
            "loop: closed, 1 client, {} ops in {op_s:.3} s of op time, {} items \
             (run means: {:.4} items/s, {:.4} CPU ms/item)",
            tally.attempted,
            tally.items,
            tally.items as f64 / op_s,
            cpu_s * 1e3 / tally.items.max(1) as f64,
        ),
        format!(
            "host CPU steal during the ops: {steal_s:.2} s; timings use {} of {} ops \
             (left out: ops that lost more than {}% of the CPUs to steal)",
            timed.len(),
            samples.len(),
            STEAL_LIMIT * 100.0,
        ),
    ];
    if let Some((q1, q2, q3)) = stats::quartiles(&latencies) {
        notes.push(format!("latency quartiles: {q1:.3} / {q2:.3} / {q3:.3} ms"));
    }
    if let Some(t) = tail {
        notes.push(format!(
            "latency_tail_ms is p{} of {} ops ({} beyond it{})",
            t.percentile,
            t.count,
            t.beyond,
            if t.beyond < stats::TAIL_MIN_BEYOND {
                "; fewer than 20 ops, so the median stands in"
            } else {
                ""
            }
        ));
    }
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        check_failures,
        metrics: vec![
            metric("items_per_s", med(&column(|s| s.items_per_s)), "1/s"),
            metric("latency_p50_ms", med(&latencies), "ms"),
            metric("latency_tail_ms", tail.map_or(0.0, |t| t.value), "ms"),
            metric("cpu_ms_per_item", med(&column(|s| s.cpu_ms_per_item)), "ms"),
            metric("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
            metric("setup_s", setup_s, "s"),
        ],
        notes,
    })
}

fn pct_over(value: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (value / base - 1.0) * 100.0
    }
}

/// The traced pass: rounds of untraced, telemetry-on and traced ops,
/// then the workload's probes; reports every per-layer metric.
fn traced<W: Workload>(
    mut w: W,
    args: &Args,
    scratch: &Scratch,
    mut rec: Recorder,
) -> Result<Report> {
    let mut check_failures = w.run_checks()?;
    let mut tally = Tally::default();
    let (mut plain, mut telemetry) = (Vec::new(), Vec::new());
    let (mut jobs, mut tasks) = (Vec::new(), Vec::new());
    // Pool counters only advance while profiling is on, i.e. during the
    // traced ops below.
    let pool_start = pool::stats();
    for k in 0..W::TRACE_ROUNDS {
        let t = Instant::now();
        let out = w.op(k);
        plain.push(t.elapsed().as_secs_f64() * 1e3);
        tally.add(&mut w, k, out);

        litho_telemetry::enable();
        let t = Instant::now();
        let out = w.op(k);
        telemetry.push(t.elapsed().as_secs_f64() * 1e3);
        litho_telemetry::reset();
        tally.add(&mut w, k, out);

        pool::set_profiling(true);
        let base = pool::stats();
        rec.set_op(k + 1);
        let out = rec.span("op", |rec| w.op_traced(k, rec));
        let delta = pool::stats().delta_since(&base);
        pool::set_profiling(false);
        rec.set_op(0);
        jobs.push(delta.jobs as f64);
        tasks.push(delta.tasks as f64);
        tally.add(&mut w, k, out);
    }
    let pool_total = pool::stats().delta_since(&pool_start);
    let probed = w.probes(args.seed, scratch, &mut rec)?;
    tally.attempted += 1;

    let med = |xs: &[f64]| stats::median(xs).unwrap_or(0.0);
    let plain_ms = med(&plain);
    let parts: Vec<f64> = W::PARTS
        .iter()
        .map(|p| rec.median_ms(p).unwrap_or(0.0))
        .collect();
    let mut metrics = Vec::new();
    for &(name, span) in SPAN_METRICS {
        let value = rec
            .median_ms(span)
            .ok_or_else(|| check_err(format!("no {span} span was recorded")))?;
        metrics.push(metric(name, value, "ms"));
    }
    let serial_clip_ms = {
        let clips = rec.durations_ms("probe.clip");
        clips.iter().sum::<f64>() / clips.len().max(1) as f64
    };
    let gen = w.gen_log();
    let generate_ms = med(&rec.durations_ms("dataset.generate"));
    let (clips, threads) = gen.last;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    metrics.extend([
        metric(
            "core.unattributed_pct",
            stats::residual_pct(plain_ms, &parts),
            "%",
        ),
        metric("tensor.pool.jobs_per_op", med(&jobs), "count"),
        metric("tensor.pool.tasks_per_op", med(&tasks), "count"),
        metric(
            "tensor.pool.utilization",
            pool_total.utilization().unwrap_or(0.0),
            "ratio",
        ),
        metric(
            "tensor.pool.balance",
            pool_total.balance().unwrap_or(0.0),
            "ratio",
        ),
        metric(
            "layout.opc_iterations_per_clip",
            ratio(probed.opc.iterations, probed.opc.clips),
            "count",
        ),
        metric(
            "layout.opc_converged_ratio",
            ratio(probed.opc.converged, probed.opc.clips),
            "ratio",
        ),
        metric(
            "dataset.retry_ratio",
            ratio(gen.generated, gen.generated + gen.retries),
            "ratio",
        ),
        metric(
            "dataset.parallel_efficiency",
            if generate_ms > 0.0 {
                serial_clip_ms * clips as f64 / (threads as f64 * generate_ms)
            } else {
                0.0
            },
            "ratio",
        ),
        metric("dataset.bytes", probed.dataset_bytes as f64, "bytes"),
        metric(
            "nn.serialize.model_bytes",
            probed.model_bytes as f64,
            "bytes",
        ),
        metric(
            "bench.trace_overhead_pct",
            pct_over(med(&rec.durations_ms("op")), plain_ms),
            "%",
        ),
        metric(
            "telemetry.enabled_overhead_pct",
            pct_over(med(&telemetry), plain_ms),
            "%",
        ),
    ]);

    let mut notes = vec![format!(
        "traced pass: {} rounds; untraced op p50 {plain_ms:.3} ms = {} + residual {:.3} ms \
         (dataset.parallel_efficiency is an estimate: serial probe clip {serial_clip_ms:.1} ms \
         x {clips} clips / ({threads} threads x generate {generate_ms:.1} ms))",
        W::TRACE_ROUNDS,
        W::PARTS
            .iter()
            .zip(&parts)
            .map(|(p, v)| format!("{p} {v:.3}"))
            .collect::<Vec<_>>()
            .join(" + "),
        plain_ms - parts.iter().sum::<f64>(),
    )];
    notes.extend(span_table(&rec));
    check_failures.append(&mut tally.failures);
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        check_failures,
        metrics,
        notes,
    })
}

/// Span summary lines: count, median duration and median self time.
fn span_table(rec: &Recorder) -> Vec<String> {
    let self_ns = stats::self_times_ns(rec.spans());
    let mut order: Vec<&'static str> = Vec::new();
    let mut by_name: HashMap<&'static str, (Vec<f64>, Vec<f64>)> = HashMap::new();
    for (s, own) in rec.spans().iter().zip(self_ns) {
        let entry = by_name.entry(s.name).or_insert_with(|| {
            order.push(s.name);
            (Vec::new(), Vec::new())
        });
        entry.0.push(s.dur_ns() as f64 / 1e6);
        entry.1.push(own as f64 / 1e6);
    }
    let mut lines = vec![format!(
        "{:<28} {:>6} {:>12} {:>12}",
        "span", "count", "p50_ms", "self_p50_ms"
    )];
    for name in order {
        let (durs, selfs) = &by_name[name];
        lines.push(format!(
            "{:<28} {:>6} {:>12.3} {:>12.3}",
            name,
            durs.len(),
            stats::median(durs).unwrap_or(0.0),
            stats::median(selfs).unwrap_or(0.0)
        ));
    }
    lines
}

// ---------------------------------------------------------------------------
// infer-256

/// `LithoGan::predict_batch` over 2 masks at the paper's 256 px networks.
struct Infer {
    net: NetConfig,
    model: LithoGan,
    dataset: Dataset,
    gen: GenLog,
    model_bytes: u64,
}

impl Infer {
    const CLIPS: usize = 4;
    const BATCH: usize = 2;

    fn setup(seed: u64, scratch: &Scratch, rec: &mut Recorder) -> Result<Self> {
        let mut gen = GenLog::default();
        let config = dataset_config(ProcessConfig::n10(), Self::CLIPS, 256, derive(seed, 1));
        let dataset = generate_logged(&config, &mut gen, rec)?;
        if dataset.len() < Self::BATCH {
            return Err(check_err("infer-256 setup generated fewer than 2 clips"));
        }
        let net = NetConfig::paper();
        let path = scratch.file("infer.lgm");
        // Save a fresh model and load it back, as `train` then `predict`
        // would; only the loaded copy stays in memory.
        let model_bytes =
            probes::model_save(&mut LithoGan::new(&net, derive(seed, 2)), &path, rec)?;
        let model = probes::model_load(&net, &path, rec)?;
        Ok(Infer {
            net,
            model,
            dataset,
            gen,
            model_bytes,
        })
    }
}

/// The `k`-th batch of [`Infer::BATCH`] masks, cycling through the
/// dataset.
fn batch_masks(dataset: &Dataset, k: u64) -> Vec<&Tensor> {
    let batches = (dataset.len() / Infer::BATCH) as u64;
    let first = (k % batches) as usize * Infer::BATCH;
    dataset.samples[first..first + Infer::BATCH]
        .iter()
        .map(|s| &s.mask)
        .collect()
}

/// Every prediction is `[S, S]`, finite and in `[0, 1]`.
fn check_predictions(
    outs: &[Tensor],
    expected: usize,
    size: usize,
) -> std::result::Result<u64, String> {
    if outs.len() != expected {
        return Err(format!("{} predictions for {expected} masks", outs.len()));
    }
    for (i, o) in outs.iter().enumerate() {
        if o.dims() != [size, size] {
            return Err(format!("prediction {i} has shape {:?}", o.dims()));
        }
        if let Some(v) = o.as_slice().iter().find(|v| !(0.0..=1.0).contains(*v)) {
            return Err(format!("prediction {i} has value {v} outside [0, 1]"));
        }
    }
    Ok(expected as u64)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

impl Workload for Infer {
    type Out = Vec<Tensor>;
    const PARTS: &'static [&'static str] = &[
        "core.cgan.predict",
        "core.center.predict",
        "dataset.recenter",
    ];
    const TRACE_ROUNDS: u64 = 4;

    fn op(&mut self, k: u64) -> Result<Vec<Tensor>> {
        self.model.predict_batch(&batch_masks(&self.dataset, k))
    }

    fn op_traced(&mut self, k: u64, rec: &mut Recorder) -> Result<Vec<Tensor>> {
        probes::predict_split(&mut self.model, &batch_masks(&self.dataset, k), rec)
    }

    fn check(&mut self, _k: u64, out: Vec<Tensor>) -> std::result::Result<u64, String> {
        check_predictions(&out, Self::BATCH, self.net.image_size)
    }

    fn run_checks(&mut self) -> Result<Vec<String>> {
        // predict_batch must equal a per-mask predict bit for bit.
        let masks = batch_masks(&self.dataset, 0);
        let batch = self.model.predict_batch(&masks)?;
        let mut failures = Vec::new();
        for (i, (mask, b)) in masks.into_iter().zip(&batch).enumerate() {
            if bits(&self.model.predict(mask)?) != bits(b) {
                failures.push(format!("predict_batch output {i} differs from predict"));
            }
        }
        Ok(failures)
    }

    fn probes(&mut self, seed: u64, scratch: &Scratch, rec: &mut Recorder) -> Result<Probed> {
        probes::nn_probe(&self.net, Self::BATCH, derive(seed, 3), 1, rec)?;
        let batch = StepBatch::from_samples(&self.dataset.samples[..Self::BATCH])?;
        let cfg = TrainConfig {
            seed: derive(seed, 4),
            ..TrainConfig::paper()
        };
        probes::step_split(&mut self.model, &batch, &cfg, 0, rec)?;
        let opc = probes::layout_probe(self.net.image_size, derive(seed, 5), rec)?;
        let (dataset_bytes, _) =
            probes::dataset_io(&self.dataset, &scratch.file("infer.lgd"), rec)?;
        Ok(Probed {
            opc,
            dataset_bytes,
            model_bytes: self.model_bytes,
        })
    }

    fn gen_log(&self) -> &GenLog {
        &self.gen
    }
}

// ---------------------------------------------------------------------------
// train-64

/// One dual-learning step on a 4-sample mini-batch at 64 px.
///
/// Step time depends on the weight initialisation (about ±7% from one
/// init seed to another on a 2-core x86 host), so a run trains
/// [`Train::MODELS`] independently initialised models round-robin and
/// reports their blend rather than one draw.
struct Train {
    net: NetConfig,
    models: Vec<LithoGan>,
    dataset: Dataset,
    batches: Vec<StepBatch>,
    cfg: TrainConfig,
    gen: GenLog,
}

impl Train {
    const CLIPS: usize = 16;
    const SIZE: usize = 64;
    const MODELS: u64 = 4;

    fn setup(seed: u64, rec: &mut Recorder) -> Result<Self> {
        let mut gen = GenLog::default();
        let config = dataset_config(
            ProcessConfig::n10(),
            Self::CLIPS,
            Self::SIZE,
            derive(seed, 1),
        );
        let dataset = generate_logged(&config, &mut gen, rec)?;
        let cfg = TrainConfig {
            seed: derive(seed, 3),
            ..TrainConfig::paper()
        };
        let batches = dataset
            .samples
            .chunks_exact(cfg.batch_size)
            .map(StepBatch::from_samples)
            .collect::<Result<Vec<_>>>()?;
        if batches.is_empty() {
            return Err(check_err(
                "train-64 setup generated fewer clips than one mini-batch",
            ));
        }
        let net = NetConfig::scaled(Self::SIZE);
        Ok(Train {
            models: (0..Self::MODELS)
                .map(|m| LithoGan::new(&net, derive(seed, 20 + m)))
                .collect(),
            net,
            dataset,
            batches,
            cfg,
            gen,
        })
    }

    /// The model and mini-batch op `k` steps.
    fn parts(&mut self, k: u64) -> (&mut LithoGan, &StepBatch) {
        let batch = (k / Self::MODELS) % self.batches.len() as u64;
        (
            &mut self.models[(k % Self::MODELS) as usize],
            &self.batches[batch as usize],
        )
    }
}

fn check_losses(losses: &[f32], items: usize) -> std::result::Result<u64, String> {
    match losses.iter().find(|l| !l.is_finite()) {
        Some(l) => Err(format!("non-finite loss {l}")),
        None => Ok(items as u64),
    }
}

impl Workload for Train {
    type Out = [f32; 3];
    const PARTS: &'static [&'static str] = &["core.cgan.step", "core.center.step"];
    const TRACE_ROUNDS: u64 = 8;

    fn op(&mut self, k: u64) -> Result<[f32; 3]> {
        let cfg = self.cfg.clone();
        let (model, batch) = self.parts(k);
        let (g, d) = model.cgan.train_epoch(&batch.pairs, &cfg, k as usize)?;
        let c = model.center.train_epoch(&batch.centers, &cfg, k as usize)?;
        Ok([g, d, c])
    }

    fn op_traced(&mut self, k: u64, rec: &mut Recorder) -> Result<[f32; 3]> {
        let cfg = self.cfg.clone();
        let (model, batch) = self.parts(k);
        probes::step_split(model, batch, &cfg, k as usize, rec)
    }

    fn check(&mut self, _k: u64, out: [f32; 3]) -> std::result::Result<u64, String> {
        check_losses(&out, self.cfg.batch_size)
    }

    fn run_checks(&mut self) -> Result<Vec<String>> {
        // Warm-up step per model: Adam allocates its moment buffers on
        // first use.
        let mut failures = Vec::new();
        for k in 0..Self::MODELS {
            let losses = self.op(k)?;
            failures.extend(check_losses(&losses, 0).err());
        }
        Ok(failures)
    }

    fn probes(&mut self, seed: u64, scratch: &Scratch, rec: &mut Recorder) -> Result<Probed> {
        let masks: Vec<&Tensor> = self.dataset.samples[..2].iter().map(|s| &s.mask).collect();
        for _ in 0..3 {
            probes::predict_split(&mut self.models[0], &masks, rec)?;
        }
        probes::nn_probe(&self.net, self.cfg.batch_size, derive(seed, 4), 3, rec)?;
        let opc = probes::layout_probe(Self::SIZE, derive(seed, 5), rec)?;
        let (dataset_bytes, _) =
            probes::dataset_io(&self.dataset, &scratch.file("train.lgd"), rec)?;
        let path = scratch.file("train.lgm");
        let model_bytes = probes::model_save(&mut self.models[0], &path, rec)?;
        probes::model_load(&self.net, &path, rec)?;
        Ok(Probed {
            opc,
            dataset_bytes,
            model_bytes,
        })
    }

    fn gen_log(&self) -> &GenLog {
        &self.gen
    }
}

// ---------------------------------------------------------------------------
// datagen

/// `dataset::generate` of 8 clips at 64 px plus a save/load round trip,
/// cycling through (process, seed) pairs that alternate N10 and N7.
struct Datagen {
    seed: u64,
    path: std::path::PathBuf,
    digests: HashMap<u64, u64>,
    last: Option<Dataset>,
    dataset_bytes: u64,
    gen: GenLog,
}

/// Output of one datagen op.
struct DatagenOut {
    config: DatasetConfig,
    stats: GenerationStats,
    dataset: Dataset,
    loaded: Dataset,
}

impl Datagen {
    const CLIPS: usize = 8;
    const SIZE: usize = 64;

    fn setup(seed: u64, scratch: &Scratch, rec: &mut Recorder) -> Result<Self> {
        // Warm-up: a 2-clip generate per process fills lazily built state
        // (allocator arenas, the worker pool) before anything is timed.
        for process in [ProcessConfig::n10(), ProcessConfig::n7()] {
            let config = dataset_config(process, 2, Self::SIZE, derive(seed, 50));
            rec.span("setup.warmup", |_| generate(&config))?;
        }
        Ok(Datagen {
            seed,
            path: scratch.file("datagen.lgd"),
            digests: HashMap::new(),
            last: None,
            dataset_bytes: 0,
            gen: GenLog::default(),
        })
    }

    /// The (process, seed) pair op `k` generates. Two ops in three draw a
    /// fresh pair, which spreads a run over as much content as it can;
    /// every third op repeats an earlier pair so its digest can be
    /// compared.
    fn pair(k: u64) -> u64 {
        if k % 3 == 2 {
            k / 3
        } else {
            k - k / 3
        }
    }

    fn config(&self, k: u64) -> DatasetConfig {
        let j = Self::pair(k);
        let process = if j.is_multiple_of(2) {
            ProcessConfig::n10()
        } else {
            ProcessConfig::n7()
        };
        dataset_config(process, Self::CLIPS, Self::SIZE, derive(self.seed, 100 + j))
    }
}

/// The save/load contract: everything bit-exact except masks, which are
/// stored quantised to 8 bits.
fn same_dataset(a: &Dataset, b: &Dataset) -> bool {
    a.config == b.config
        && a.samples.len() == b.samples.len()
        && a.samples.iter().zip(&b.samples).all(|(x, y)| {
            x.clip == y.clip
                && x.family == y.family
                && x.center_px == y.center_px
                && x.golden == y.golden
                && x.golden_centered == y.golden_centered
                && x.mask.dims() == y.mask.dims()
                && x.mask
                    .as_slice()
                    .iter()
                    .zip(y.mask.as_slice())
                    .all(|(p, q)| (p - q).abs() <= 0.5 / 255.0 + 1e-6)
        })
}

/// FNV-1a content digest of a dataset's samples.
fn digest(dataset: &Dataset) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for s in &dataset.samples {
        eat(s.clip.fingerprint().as_bytes());
        eat(s.family.name().as_bytes());
        eat(&s.center_px.0.to_le_bytes());
        eat(&s.center_px.1.to_le_bytes());
        for t in [&s.mask, &s.golden, &s.golden_centered] {
            for v in t.as_slice() {
                eat(&v.to_le_bytes());
            }
        }
    }
    h
}

impl Workload for Datagen {
    type Out = DatagenOut;
    const PARTS: &'static [&'static str] = &["dataset.generate", "dataset.save", "dataset.load"];
    const TRACE_ROUNDS: u64 = 4;

    fn op(&mut self, k: u64) -> Result<DatagenOut> {
        let config = self.config(k);
        let (dataset, stats) = generate(&config)?;
        save_dataset(&dataset, &self.path)?;
        let loaded = load_dataset(&self.path)?;
        Ok(DatagenOut {
            config,
            stats,
            dataset,
            loaded,
        })
    }

    fn op_traced(&mut self, k: u64, rec: &mut Recorder) -> Result<DatagenOut> {
        let config = self.config(k);
        let (dataset, stats) = rec.span("dataset.generate", |_| generate(&config))?;
        rec.span("dataset.save", |_| save_dataset(&dataset, &self.path))?;
        self.dataset_bytes = std::fs::metadata(&self.path).map_or(0, |m| m.len());
        let loaded = rec.span("dataset.load", |_| load_dataset(&self.path))?;
        Ok(DatagenOut {
            config,
            stats,
            dataset,
            loaded,
        })
    }

    fn check(&mut self, k: u64, out: DatagenOut) -> std::result::Result<u64, String> {
        let _ = std::fs::remove_file(&self.path);
        let s = &out.stats;
        // Clips that exhaust their retries are dropped, so generated plus
        // failed must account for every requested clip.
        if s.requested != Self::CLIPS || s.generated > s.requested {
            return Err(format!(
                "requested {} generated {}",
                s.requested, s.generated
            ));
        }
        if out.dataset.len() != s.generated {
            return Err(format!(
                "{} samples but {} generated",
                out.dataset.len(),
                s.generated
            ));
        }
        if let Some(i) = out
            .dataset
            .samples
            .iter()
            .position(|x| x.golden.sum() == 0.0)
        {
            return Err(format!("sample {i} has an empty golden window"));
        }
        if !same_dataset(&out.dataset, &out.loaded) {
            return Err("save/load round trip changed the dataset".into());
        }
        let d = digest(&out.dataset);
        let j = Self::pair(k);
        if *self.digests.entry(j).or_insert(d) != d {
            return Err(format!(
                "{} seed {} digest {d:016x} differs from an earlier repetition",
                out.config.process.name, out.config.seed
            ));
        }
        self.gen.note(&out.config, s);
        let n = out.dataset.len() as u64;
        self.last = Some(out.dataset);
        Ok(n)
    }

    fn run_checks(&mut self) -> Result<Vec<String>> {
        Ok(Vec::new())
    }

    fn probes(&mut self, seed: u64, scratch: &Scratch, rec: &mut Recorder) -> Result<Probed> {
        let dataset = self
            .last
            .take()
            .ok_or_else(|| check_err("no datagen op succeeded"))?;
        let net = NetConfig::scaled(Self::SIZE);
        let mut model = LithoGan::new(&net, derive(seed, 2));
        let cfg = TrainConfig {
            seed: derive(seed, 3),
            ..TrainConfig::paper()
        };
        let masks: Vec<&Tensor> = dataset.samples[..2].iter().map(|s| &s.mask).collect();
        let batch = StepBatch::from_samples(&dataset.samples[..cfg.batch_size])?;
        for epoch in 0..3 {
            probes::predict_split(&mut model, &masks, rec)?;
            probes::step_split(&mut model, &batch, &cfg, epoch, rec)?;
        }
        probes::nn_probe(&net, cfg.batch_size, derive(seed, 4), 3, rec)?;
        let opc = probes::layout_probe(Self::SIZE, derive(seed, 5), rec)?;
        let path = scratch.file("datagen.lgm");
        let model_bytes = probes::model_save(&mut model, &path, rec)?;
        probes::model_load(&net, &path, rec)?;
        Ok(Probed {
            opc,
            dataset_bytes: self.dataset_bytes,
            model_bytes,
        })
    }

    fn gen_log(&self) -> &GenLog {
        &self.gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive(1, 2), derive(1, 2));
        assert_ne!(derive(1, 2), derive(1, 3));
        assert_ne!(derive(1, 2), derive(2, 2));
    }

    #[test]
    fn prediction_check_rejects_bad_outputs() {
        let ok = Tensor::full(&[4, 4], 0.5);
        assert_eq!(check_predictions(&[ok.clone(), ok.clone()], 2, 4), Ok(2));
        assert!(check_predictions(std::slice::from_ref(&ok), 2, 4).is_err());
        assert!(check_predictions(&[Tensor::full(&[4, 4], f32::NAN)], 1, 4).is_err());
        assert!(check_predictions(&[Tensor::full(&[4, 4], 1.5)], 1, 4).is_err());
        assert!(check_predictions(&[Tensor::full(&[2, 8], 0.5)], 1, 4).is_err());
    }

    #[test]
    fn datagen_draws_fresh_pairs_and_repeats_every_third_op() {
        let pairs: Vec<u64> = (0..9).map(Datagen::pair).collect();
        assert_eq!(pairs, vec![0, 1, 0, 2, 3, 1, 4, 5, 2]);
    }

    #[test]
    fn timings_leave_out_stolen_ops_unless_too_few_remain() {
        let op = |latency_ms: f64, stolen: bool| OpSample {
            latency_ms,
            items_per_s: 1.0,
            cpu_ms_per_item: 1.0,
            stolen,
        };
        let mixed = [
            op(1.0, false),
            op(9.0, true),
            op(2.0, false),
            op(3.0, false),
        ];
        let kept: Vec<f64> = timed_ops(&mixed).iter().map(|s| s.latency_ms).collect();
        assert_eq!(kept, vec![1.0, 2.0, 3.0]);
        let mostly_stolen = [op(1.0, false), op(9.0, true), op(8.0, true)];
        assert_eq!(timed_ops(&mostly_stolen).len(), 3);
    }

    #[test]
    fn loss_check_rejects_non_finite() {
        assert_eq!(check_losses(&[1.0, 2.0, 3.0], 4), Ok(4));
        assert!(check_losses(&[1.0, f32::INFINITY, 3.0], 4).is_err());
    }
}
