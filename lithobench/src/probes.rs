//! Traced probes: the benchmark's own spans around calls into each
//! layer's public functions. Nothing here is timed in the end-to-end
//! pass.

use litho_dataset::{golden_window, load_dataset, save_dataset, Dataset, Sample};
use litho_layout::{
    insert_srafs, rasterize_clip, ClipFamily, ClipGenerator, OpcConfig, OpcEngine, RasterConfig,
    SrafRules,
};
use litho_nn::{Adam, Layer, Optimizer, Phase, Sequential};
use litho_sim::{ProcessConfig, ResistModel, RigorousSim};
use litho_tensor::rng::{SeedableRng, StdRng, Uniform};
use litho_tensor::{Result, Tensor};
use lithogan::{LithoGan, NetConfig, TrainConfig, TrainPair};

use crate::stats::Recorder;

/// Clip extent every dataset clip uses, nm (2 × 2 µm).
pub const CLIP_EXTENT_NM: f64 = 2048.0;

/// `LithoGan::predict_batch` split into the three public parts it
/// composes, each under its own span.
pub fn predict_split(
    model: &mut LithoGan,
    masks: &[&Tensor],
    rec: &mut Recorder,
) -> Result<Vec<Tensor>> {
    let shapes = rec.span("core.cgan.predict", |_| model.cgan.predict_batch(masks))?;
    let centers = rec.span("core.center.predict", |_| model.center.predict_batch(masks))?;
    rec.span("dataset.recenter", |_| {
        shapes
            .iter()
            .zip(&centers)
            .map(|(shape, &center)| Sample::recenter_to(shape, center))
            .collect()
    })
}

/// Training inputs of one dual-learning step.
#[derive(Debug, Clone)]
pub struct StepBatch {
    /// CGAN pairs (mask → re-centred golden).
    pub pairs: Vec<TrainPair>,
    /// Centre-CNN samples (mask, golden centre).
    pub centers: Vec<(Tensor, (f32, f32))>,
}

impl StepBatch {
    /// Builds the step inputs from dataset samples, as `LithoGan::train`
    /// does.
    pub fn from_samples(samples: &[Sample]) -> Result<Self> {
        Ok(StepBatch {
            pairs: samples
                .iter()
                .map(|s| TrainPair::from_dataset(&s.mask, &s.golden_centered))
                .collect::<Result<_>>()?,
            centers: samples
                .iter()
                .map(|s| (s.mask.clone(), s.center_px))
                .collect(),
        })
    }
}

/// One dual-learning step: `Cgan::train_epoch` then
/// `CenterCnn::train_epoch` on the same mini-batch. Returns the
/// (generator, discriminator, centre) losses.
pub fn step_split(
    model: &mut LithoGan,
    batch: &StepBatch,
    cfg: &TrainConfig,
    epoch: usize,
    rec: &mut Recorder,
) -> Result<[f32; 3]> {
    let (g, d) = rec.span("core.cgan.step", |_| {
        model.cgan.train_epoch(&batch.pairs, cfg, epoch)
    })?;
    let c = rec.span("core.center.step", |_| {
        model.center.train_epoch(&batch.centers, cfg, epoch)
    })?;
    Ok([g, d, c])
}

fn uniform(dims: &[usize], rng: &mut StdRng) -> Tensor {
    Tensor::random(dims, &Uniform::new(-1.0, 1.0), rng)
}

fn probe_net(
    rec: &mut Recorder,
    names: [&'static str; 3],
    mut net: Sequential,
    input: &Tensor,
    reps: usize,
) -> Result<()> {
    let mut adam = Adam::new(2e-4, 0.5, 0.999);
    for _ in 0..reps {
        net.zero_grad();
        let out = rec.span(names[0], |_| net.forward(input, Phase::Train))?;
        let grad = Tensor::full(out.dims(), 1.0 / out.len() as f32);
        rec.span(names[1], |_| net.backward(&grad))?;
        rec.span(names[2], |_| adam.step(&mut net));
    }
    Ok(())
}

/// Times `Layer::forward` in `Phase::Train`, `backward` and `Adam::step`
/// on fresh G, D and C networks at `batch × net.image_size`.
pub fn nn_probe(
    net: &NetConfig,
    batch: usize,
    seed: u64,
    reps: usize,
    rec: &mut Recorder,
) -> Result<()> {
    let s = net.image_size;
    let mut rng = StdRng::seed_from_u64(seed);
    let x = uniform(&[batch, net.in_channels, s, s], &mut rng);
    probe_net(
        rec,
        ["nn.G.fwd", "nn.G.bwd", "nn.adam.G"],
        net.build_generator(seed),
        &x,
        reps,
    )?;
    let pair = uniform(&[batch, net.in_channels + net.out_channels, s, s], &mut rng);
    probe_net(
        rec,
        ["nn.D.fwd", "nn.D.bwd", "nn.adam.D"],
        net.build_discriminator(seed + 1),
        &pair,
        reps,
    )?;
    probe_net(
        rec,
        ["nn.C.fwd", "nn.C.bwd", "nn.adam.C"],
        net.build_center_cnn(seed + 2),
        &x,
        reps,
    )
}

/// OPC outcome counts from the layout probe.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpcCounts {
    /// Clips corrected.
    pub clips: usize,
    /// OPC iterations summed over clips.
    pub iterations: usize,
    /// Clips whose OPC loop met tolerance.
    pub converged: usize,
}

/// Runs the dataset pipeline's per-clip stages serially on clips drawn
/// with the benchmark's own RNG: one clip per family for each of N10 and
/// N7, at `image_size`. Mirrors `litho_dataset::generate` without its
/// thread fan-out and mask jitter.
pub fn layout_probe(image_size: usize, seed: u64, rec: &mut Recorder) -> Result<OpcCounts> {
    let sim_grid = 256;
    let mut counts = OpcCounts::default();
    for process in [ProcessConfig::n10(), ProcessConfig::n7()] {
        let sim = rec.span("sim.engine_build", |_| {
            RigorousSim::new(&process, sim_grid, CLIP_EXTENT_NM / sim_grid as f64)
        })?;
        let opc = OpcEngine::new(
            &process,
            CLIP_EXTENT_NM,
            OpcConfig {
                grid_size: sim_grid,
                ..OpcConfig::default()
            },
        )?;
        let generator = ClipGenerator::new(&process);
        let rules = SrafRules::for_process(&process);
        let resist = ResistModel::new(process.resist);
        for (i, family) in ClipFamily::ALL.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
            rec.span("probe.clip", |rec| -> Result<()> {
                let mut clip = rec.span("layout.clip_generate", |_| {
                    generator.generate(family, &mut rng)
                });
                rec.span("layout.sraf", |_| insert_srafs(&mut clip, &rules));
                let opc_result = rec.span("layout.opc", |_| opc.correct(&clip))?;
                counts.clips += 1;
                counts.iterations += opc_result.iterations;
                counts.converged += usize::from(opc_result.converged);
                let corrected = opc_result.clip;
                let (grid, _image) = rec.span("layout.raster", |_| -> Result<_> {
                    let raster = RasterConfig {
                        image_size,
                        window_nm: 1024,
                    };
                    Ok((
                        corrected.to_mask_grid(sim_grid),
                        rasterize_clip(&corrected, &raster)?,
                    ))
                })?;
                // The simulator reports its own stage times; they become
                // child spans laid end to end from the call's start.
                let (_, report) = rec.span("sim.simulate", |rec| {
                    let start = rec.now_ns();
                    let out = sim.simulate(&grid)?;
                    let optical = out.1.optical_time.as_nanos() as u64;
                    rec.record("sim.optical", start, optical);
                    rec.record(
                        "sim.resist_contour",
                        start + optical,
                        out.1.resist_time.as_nanos() as u64,
                    );
                    Ok::<_, litho_tensor::TensorError>(out)
                })?;
                rec.span("dataset.window", |_| {
                    let excess = resist.excess_field(&report.aerial);
                    golden_window(&excess, sim_grid, corrected.extent_nm, 128.0, image_size)
                })?;
                Ok(())
            })?;
        }
    }
    Ok(counts)
}

/// Saves and reloads `dataset` under spans; returns the file size and
/// the reloaded dataset.
pub fn dataset_io(
    dataset: &Dataset,
    path: &std::path::Path,
    rec: &mut Recorder,
) -> Result<(u64, Dataset)> {
    rec.span("dataset.save", |_| save_dataset(dataset, path))?;
    let bytes = file_len(path);
    let loaded = rec.span("dataset.load", |_| load_dataset(path))?;
    let _ = std::fs::remove_file(path);
    Ok((bytes, loaded))
}

/// Saves a model under a span, as `train` writes it; returns the file
/// size.
pub fn model_save(model: &mut LithoGan, path: &std::path::Path, rec: &mut Recorder) -> Result<u64> {
    rec.span("nn.serialize.model_save", |_| model.save_to_path(path))?;
    Ok(file_len(path))
}

/// Loads a model under a span, as the `predict` CLI does, then removes
/// the file.
pub fn model_load(net: &NetConfig, path: &std::path::Path, rec: &mut Recorder) -> Result<LithoGan> {
    let loaded = rec.span("nn.serialize.model_load", |_| {
        LithoGan::load_from_path(net, path)
    });
    let _ = std::fs::remove_file(path);
    loaded
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
