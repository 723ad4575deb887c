//! Dataset persistence in a compact custom binary format.
//!
//! The mask images are stored as bytes (`0..=255` quantisation of `[0,1]`
//! coverage values) and golden windows as packed bits, so a paper-scale
//! 982-clip dataset at 256 × 256 stays around 200 MB. Process presets are
//! stored by name (`"N10"`/`"N7"`) and reconstructed on load.

use std::io::{Read, Seek, Write};
use std::path::Path;

use litho_layout::{Clip, ClipFamily, Rect};
use litho_sim::ProcessConfig;
use litho_tensor::{Result, Tensor, TensorError};

use crate::{Dataset, DatasetConfig, Sample};

const MAGIC: &[u8; 4] = b"LGD3";

fn io_err(err: std::io::Error) -> TensorError {
    TensorError::InvalidArgument(format!("dataset i/o: {err}"))
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(io_err)?;
    Ok(u32::from_le_bytes(b))
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(io_err)?;
    Ok(u64::from_le_bytes(b))
}

fn write_f64<W: Write>(w: &mut W, v: f64) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn read_f64<R: Read>(r: &mut R) -> Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(io_err)?;
    Ok(f64::from_le_bytes(b))
}

fn family_code(f: ClipFamily) -> u8 {
    match f {
        ClipFamily::Isolated => 0,
        ClipFamily::Chain1d => 1,
        ClipFamily::Array2d => 2,
    }
}

fn family_from(code: u8) -> Result<ClipFamily> {
    match code {
        0 => Ok(ClipFamily::Isolated),
        1 => Ok(ClipFamily::Chain1d),
        2 => Ok(ClipFamily::Array2d),
        c => Err(TensorError::InvalidArgument(format!(
            "unknown clip family code {c}"
        ))),
    }
}

fn write_rect<W: Write>(w: &mut W, r: &Rect) -> Result<()> {
    for v in [r.x0, r.y0, r.x1, r.y1] {
        write_f64(w, v)?;
    }
    Ok(())
}

fn read_rect<R: Read>(r: &mut R) -> Result<Rect> {
    let x0 = read_f64(r)?;
    let y0 = read_f64(r)?;
    let x1 = read_f64(r)?;
    let y1 = read_f64(r)?;
    Ok(Rect::new(x0, y0, x1, y1))
}

fn write_clip<W: Write>(w: &mut W, clip: &Clip) -> Result<()> {
    write_f64(w, clip.extent_nm)?;
    write_rect(w, &clip.target)?;
    write_u32(w, clip.neighbors.len() as u32)?;
    for r in &clip.neighbors {
        write_rect(w, r)?;
    }
    write_u32(w, clip.srafs.len() as u32)?;
    for r in &clip.srafs {
        write_rect(w, r)?;
    }
    Ok(())
}

fn read_clip<R: Read>(r: &mut R) -> Result<Clip> {
    let extent_nm = read_f64(r)?;
    let target = read_rect(r)?;
    let mut clip = Clip::new(extent_nm, target);
    let n = read_u32(r)? as usize;
    for _ in 0..n {
        clip.neighbors.push(read_rect(r)?);
    }
    let n = read_u32(r)? as usize;
    for _ in 0..n {
        clip.srafs.push(read_rect(r)?);
    }
    Ok(clip)
}

fn pack_bits(image: &Tensor) -> Vec<u8> {
    let mut out = vec![0u8; image.len().div_ceil(8)];
    for (i, &v) in image.as_slice().iter().enumerate() {
        if v >= 0.5 {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

fn unpack_bits(bytes: &[u8], dims: &[usize]) -> Result<Tensor> {
    let n: usize = dims.iter().product();
    let data = (0..n)
        .map(|i| {
            if bytes[i / 8] & (1 << (i % 8)) != 0 {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    Tensor::from_vec(data, dims)
}

/// Rejects a size read from the file (`None` when computing it
/// overflowed) that exceeds the bytes left after the reader's position,
/// before anything is allocated from it.
fn fits_in_file<R: Seek>(r: &mut R, file_len: u64, what: &str, bytes: Option<u64>) -> Result<()> {
    let left = file_len.saturating_sub(r.stream_position().map_err(io_err)?);
    match bytes {
        Some(b) if b <= left => Ok(()),
        _ => Err(TensorError::InvalidArgument(format!(
            "dataset: {what} needs more than the {left} bytes left in the file"
        ))),
    }
}

/// Writes a dataset to `path`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] on I/O failure or when the
/// process is not a named preset (only `"N10"`/`"N7"` round-trip).
pub fn save_dataset<P: AsRef<Path>>(dataset: &Dataset, path: P) -> Result<()> {
    let cfg = &dataset.config;
    if cfg.process.name != "N10" && cfg.process.name != "N7" {
        return Err(TensorError::InvalidArgument(format!(
            "only preset processes can be persisted, got {:?}",
            cfg.process.name
        )));
    }
    let file = std::fs::File::create(path).map_err(io_err)?;
    let mut w = std::io::BufWriter::new(file);
    w.write_all(MAGIC).map_err(io_err)?;
    let name = cfg.process.name.as_bytes();
    write_u32(&mut w, name.len() as u32)?;
    w.write_all(name).map_err(io_err)?;
    write_u32(&mut w, cfg.clip_count as u32)?;
    write_u32(&mut w, cfg.image_size as u32)?;
    write_u32(&mut w, cfg.sim_grid as u32)?;
    write_f64(&mut w, cfg.golden_window_nm)?;
    write_f64(&mut w, cfg.train_fraction)?;
    write_u64(&mut w, cfg.seed)?;
    write_f64(&mut w, cfg.mask_jitter_nm)?;

    write_u32(&mut w, dataset.samples.len() as u32)?;
    let s = cfg.image_size;
    for sample in &dataset.samples {
        write_clip(&mut w, &sample.clip)?;
        w.write_all(&[family_code(sample.family)]).map_err(io_err)?;
        w.write_all(&sample.center_px.0.to_le_bytes()).map_err(io_err)?;
        w.write_all(&sample.center_px.1.to_le_bytes()).map_err(io_err)?;
        // Mask: u8 quantisation.
        let mask_bytes: Vec<u8> = sample
            .mask
            .as_slice()
            .iter()
            .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
            .collect();
        debug_assert_eq!(mask_bytes.len(), 3 * s * s);
        w.write_all(&mask_bytes).map_err(io_err)?;
        // Goldens: packed bits.
        w.write_all(&pack_bits(&sample.golden)).map_err(io_err)?;
        w.write_all(&pack_bits(&sample.golden_centered)).map_err(io_err)?;
    }
    Ok(())
}

/// Reads a dataset previously written by [`save_dataset`].
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] on I/O failure, bad magic, or
/// an unknown process name.
pub fn load_dataset<P: AsRef<Path>>(path: P) -> Result<Dataset> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    let len = file.metadata().map_err(io_err)?.len();
    let mut r = std::io::BufReader::new(file);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(io_err)?;
    if &magic != MAGIC {
        return Err(TensorError::InvalidArgument("not a LGD3 dataset".into()));
    }
    let name_len = read_u32(&mut r)? as usize;
    fits_in_file(&mut r, len, "process name", Some(name_len as u64))?;
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name).map_err(io_err)?;
    let process = match name.as_slice() {
        b"N10" => ProcessConfig::n10(),
        b"N7" => ProcessConfig::n7(),
        other => {
            return Err(TensorError::InvalidArgument(format!(
                "unknown process preset {:?}",
                String::from_utf8_lossy(other)
            )))
        }
    };
    let clip_count = read_u32(&mut r)? as usize;
    let image_size = read_u32(&mut r)? as usize;
    let sim_grid = read_u32(&mut r)? as usize;
    let golden_window_nm = read_f64(&mut r)?;
    let train_fraction = read_f64(&mut r)?;
    let seed = read_u64(&mut r)?;
    let mask_jitter_nm = read_f64(&mut r)?;
    let config = DatasetConfig {
        process,
        clip_count,
        image_size,
        sim_grid,
        golden_window_nm,
        train_fraction,
        seed,
        mask_jitter_nm,
    };

    let count = read_u32(&mut r)? as usize;
    let s = image_size;
    // The smallest sample on disk: a clip with no neighbours or SRAFs
    // (48 bytes), family and centre (9), the mask and two packed goldens.
    let mask_len = s.checked_mul(s).and_then(|p| p.checked_mul(3));
    let per_sample = mask_len.and_then(|m| m.checked_add(57 + 2 * (m / 3).div_ceil(8)));
    let need = per_sample.and_then(|b| b.checked_mul(count));
    fits_in_file(&mut r, len, "sample data", need.map(|b| b as u64))?;
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let clip = read_clip(&mut r)?;
        let mut head = [0u8; 9];
        r.read_exact(&mut head).map_err(io_err)?;
        let family = family_from(head[0])?;
        let cy = f32::from_le_bytes([head[1], head[2], head[3], head[4]]);
        let cx = f32::from_le_bytes([head[5], head[6], head[7], head[8]]);
        let mut mask_bytes = vec![0u8; 3 * s * s];
        r.read_exact(&mut mask_bytes).map_err(io_err)?;
        let mask = Tensor::from_vec(
            mask_bytes.iter().map(|&b| b as f32 / 255.0).collect(),
            &[3, s, s],
        )?;
        let bits_len = (s * s).div_ceil(8);
        let mut golden_bits = vec![0u8; bits_len];
        r.read_exact(&mut golden_bits).map_err(io_err)?;
        let golden = unpack_bits(&golden_bits, &[s, s])?;
        let mut centered_bits = vec![0u8; bits_len];
        r.read_exact(&mut centered_bits).map_err(io_err)?;
        let golden_centered = unpack_bits(&centered_bits, &[s, s])?;
        samples.push(Sample {
            clip,
            mask,
            golden,
            golden_centered,
            center_px: (cy, cx),
            family,
        });
    }
    Ok(Dataset { config, samples })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        let mut golden = Tensor::zeros(&[8, 8]);
        golden.set(&[3, 4], 1.0).unwrap();
        Dataset {
            config: DatasetConfig::scaled(ProcessConfig::n10(), 1, 8),
            samples: vec![Sample {
                clip: {
                    let mut c = Clip::new(
                        2048.0,
                        Rect::centered_square(1024.0, 1024.0, 80.0),
                    );
                    c.neighbors.push(Rect::centered_square(1200.0, 1024.0, 80.0));
                    c.srafs.push(Rect::centered(1024.0, 900.0, 96.0, 24.0));
                    c
                },
                mask: Tensor::full(&[3, 8, 8], 0.5),
                golden: golden.clone(),
                golden_centered: golden,
                center_px: (3.0, 4.0),
                family: ClipFamily::Chain1d,
            }],
        }
    }

    #[test]
    fn round_trip() {
        let dir = std::env::temp_dir().join("lithogan_ds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.lgd");
        let ds = tiny_dataset();
        save_dataset(&ds, &path).unwrap();
        let loaded = load_dataset(&path).unwrap();
        assert_eq!(loaded.config, ds.config);
        assert_eq!(loaded.samples.len(), 1);
        let (a, b) = (&loaded.samples[0], &ds.samples[0]);
        assert_eq!(a.clip, b.clip);
        assert_eq!(a.family, b.family);
        assert_eq!(a.center_px, b.center_px);
        assert_eq!(a.golden, b.golden);
        // Mask round-trips within quantisation error.
        for (x, y) in a.mask.as_slice().iter().zip(b.mask.as_slice()) {
            assert!((x - y).abs() < 1.0 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn rejects_garbage() {
        let dir = std::env::temp_dir().join("lithogan_ds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.lgd");
        std::fs::write(&path, b"not a dataset").unwrap();
        assert!(load_dataset(&path).is_err());

        // A 60-byte header (N10, one clip of 60000 px, 2^31 - 1 samples)
        // whose sizes, trusted, would allocate ~500 GB.
        let mut bytes = b"LGD3\x03\0\0\0N10".to_vec();
        for v in [1u32, 60_000, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0x7fff_ffff] {
            bytes.extend(v.to_le_bytes());
        }
        bytes.push(0);
        assert_eq!(bytes.len(), 60);
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_dataset(&path).is_err());
        // So would a process name longer than the file.
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_dataset(&path).is_err());
    }

    #[test]
    fn bit_packing_round_trip() {
        let mut img = Tensor::zeros(&[5, 5]);
        img.set(&[0, 0], 1.0).unwrap();
        img.set(&[4, 4], 1.0).unwrap();
        img.set(&[2, 3], 1.0).unwrap();
        let packed = pack_bits(&img);
        assert_eq!(packed.len(), 4); // 25 bits -> 4 bytes
        let back = unpack_bits(&packed, &[5, 5]).unwrap();
        assert_eq!(back, img);
    }
}
