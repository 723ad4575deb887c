//! Weight (de)serialization in a small self-describing binary format.
//!
//! The sanctioned dependency list has no serde *format* crate, so weights
//! use a purpose-built layout:
//!
//! ```text
//! magic   b"LGW1"
//! u32     number of parameter tensors (little-endian, as all fields)
//! repeat  u32 rank, u32 dims[rank], f32 data[volume]
//! u32     number of buffer vectors (batch-norm running stats, …)
//! repeat  u32 len, f32 data[len]
//! ```
//!
//! Loading is strict: ranks, dims and buffer lengths must match the target
//! network exactly, so loading the wrong architecture fails fast instead
//! of silently corrupting weights.

use std::io::{Read, Write};

use litho_tensor::{Result, Tensor, TensorError};

use crate::layer::Layer;

const MAGIC: &[u8; 4] = b"LGW1";

fn io_err(err: std::io::Error) -> TensorError {
    TensorError::io(format!("weight i/o: {err}"))
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<()> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf).map_err(io_err)?;
    Ok(u32::from_le_bytes(buf))
}

fn write_f32s<W: Write>(w: &mut W, data: &[f32]) -> Result<()> {
    // Bulk conversion; weights are at most a few tens of MB.
    let mut bytes = Vec::with_capacity(data.len() * 4);
    for v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    w.write_all(&bytes).map_err(io_err)
}

fn read_f32s<R: Read>(r: &mut R, n: usize) -> Result<Vec<f32>> {
    let mut bytes = vec![0u8; n * 4];
    r.read_exact(&mut bytes).map_err(io_err)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Serializes all parameters and buffers of `net` into `writer`.
///
/// The same network architecture (same layer sequence) must be used when
/// loading. A `&mut W` can be passed wherever `W: Write` is required.
///
/// # Errors
///
/// Returns [`TensorError::Io`] wrapping any I/O failure.
pub fn save_weights<W: Write>(net: &mut dyn Layer, writer: W) -> Result<()> {
    let mut w = writer;
    w.write_all(MAGIC).map_err(io_err)?;

    // Each tensor is written straight from the borrowed parameter; the
    // visitor cannot return early, so the first error is kept and the
    // remaining writes are skipped.
    let mut n_params = 0u32;
    net.visit_params(&mut |_| n_params += 1);
    write_u32(&mut w, n_params)?;
    let mut result = Ok(());
    net.visit_params(&mut |p| {
        if result.is_ok() {
            result = write_tensor(&mut w, &p.value);
        }
    });
    result?;

    let mut n_buffers = 0u32;
    net.visit_buffers(&mut |_| n_buffers += 1);
    write_u32(&mut w, n_buffers)?;
    let mut result = Ok(());
    net.visit_buffers(&mut |b| {
        if result.is_ok() {
            result = write_u32(&mut w, b.len() as u32).and_then(|()| write_f32s(&mut w, b));
        }
    });
    result
}

fn write_tensor<W: Write>(w: &mut W, t: &Tensor) -> Result<()> {
    write_u32(w, t.dims().len() as u32)?;
    for &d in t.dims() {
        write_u32(w, d as u32)?;
    }
    write_f32s(w, t.as_slice())
}

/// Restores parameters and buffers previously written by [`save_weights`].
///
/// # Errors
///
/// Returns [`TensorError::Io`] on I/O failure and [`TensorError::InvalidArgument`] on magic
/// mismatch, or any shape disagreement with the target network.
pub fn load_weights<R: Read>(net: &mut dyn Layer, reader: R) -> Result<()> {
    let mut r = reader;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(io_err)?;
    if &magic != MAGIC {
        return Err(TensorError::InvalidArgument(
            "not a LGW1 weight stream".into(),
        ));
    }

    let n_params = read_u32(&mut r)? as usize;
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        let rank = read_u32(&mut r)? as usize;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u32(&mut r)? as usize);
        }
        let volume: usize = dims.iter().product();
        let data = read_f32s(&mut r, volume)?;
        params.push(Tensor::from_vec(data, &dims)?);
    }

    let n_buffers = read_u32(&mut r)? as usize;
    let mut buffers = Vec::with_capacity(n_buffers);
    for _ in 0..n_buffers {
        let len = read_u32(&mut r)? as usize;
        buffers.push(read_f32s(&mut r, len)?);
    }

    // Count and validate before mutating anything.
    let mut have_params = 0;
    net.visit_params(&mut |_| have_params += 1);
    if have_params != n_params {
        return Err(TensorError::InvalidArgument(format!(
            "network has {have_params} parameters, stream has {n_params}"
        )));
    }
    let mut have_buffers = 0;
    net.visit_buffers(&mut |_| have_buffers += 1);
    if have_buffers != n_buffers {
        return Err(TensorError::InvalidArgument(format!(
            "network has {have_buffers} buffers, stream has {n_buffers}"
        )));
    }

    let mut idx = 0;
    let mut shape_err: Option<TensorError> = None;
    net.visit_params(&mut |p| {
        if shape_err.is_none() && p.value.dims() != params[idx].dims() {
            shape_err = Some(TensorError::ShapeMismatch {
                left: p.value.dims().to_vec(),
                right: params[idx].dims().to_vec(),
            });
        }
        idx += 1;
    });
    if let Some(err) = shape_err {
        return Err(err);
    }

    let mut bidx = 0;
    let mut len_err: Option<TensorError> = None;
    net.visit_buffers(&mut |b| {
        if len_err.is_none() && b.len() != buffers[bidx].len() {
            len_err = Some(TensorError::LengthMismatch {
                expected: b.len(),
                actual: buffers[bidx].len(),
            });
        }
        bidx += 1;
    });
    if let Some(err) = len_err {
        return Err(err);
    }

    // Every count, shape and length matched: move the decoded data in.
    let mut params = params.into_iter();
    net.visit_params(&mut |p| p.value = params.next().expect("counted above"));
    let mut buffers = buffers.into_iter();
    net.visit_buffers(&mut |b| *b = buffers.next().expect("counted above"));
    Ok(())
}

/// Saves weights to a file path.
///
/// # Errors
///
/// Same conditions as [`save_weights`].
pub fn save_weights_to_path<P: AsRef<std::path::Path>>(net: &mut dyn Layer, path: P) -> Result<()> {
    let file = std::fs::File::create(path).map_err(io_err)?;
    save_weights(net, std::io::BufWriter::new(file))
}

/// Loads weights from a file path.
///
/// # Errors
///
/// Same conditions as [`load_weights`].
pub fn load_weights_from_path<P: AsRef<std::path::Path>>(net: &mut dyn Layer, path: P) -> Result<()> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    load_weights(net, std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchNorm2d, Layer, Linear, Phase, Sequential};
    use litho_tensor::Tensor;
    use litho_tensor::rng::SeedableRng;

    fn small_net(seed: u64) -> Sequential {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Linear::new(3, 4, &mut rng));
        net.push(Linear::new(4, 2, &mut rng));
        net
    }

    #[test]
    fn round_trip_preserves_outputs() {
        let mut a = small_net(1);
        let mut b = small_net(2);
        let x = Tensor::ones(&[1, 3]);
        let ya = a.forward(&x, Phase::Eval).unwrap();
        assert_ne!(ya, b.forward(&x, Phase::Eval).unwrap());

        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();
        load_weights(&mut b, bytes.as_slice()).unwrap();
        assert_eq!(ya, b.forward(&x, Phase::Eval).unwrap());
    }

    #[test]
    fn batchnorm_buffers_round_trip() {
        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(3);
        let mut a = Sequential::new();
        a.push(crate::Conv2d::new(1, 2, 3, 1, 1, &mut rng));
        a.push(BatchNorm2d::new(2));
        // Drive the running stats away from the defaults.
        let x = Tensor::full(&[2, 1, 4, 4], 3.0);
        for _ in 0..5 {
            a.forward(&x, Phase::Train).unwrap();
        }
        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();

        let mut rng2 = litho_tensor::rng::StdRng::seed_from_u64(99);
        let mut b = Sequential::new();
        b.push(crate::Conv2d::new(1, 2, 3, 1, 1, &mut rng2));
        b.push(BatchNorm2d::new(2));
        load_weights(&mut b, bytes.as_slice()).unwrap();
        assert_eq!(
            a.forward(&x, Phase::Eval).unwrap(),
            b.forward(&x, Phase::Eval).unwrap()
        );
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut net = small_net(0);
        assert!(load_weights(&mut net, &b"nope"[..]).is_err());
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let mut a = small_net(0);
        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();

        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(0);
        let mut different = Sequential::new();
        different.push(Linear::new(3, 5, &mut rng));
        different.push(Linear::new(5, 2, &mut rng));
        assert!(load_weights(&mut different, bytes.as_slice()).is_err());
    }

    #[test]
    fn late_shape_mismatch_leaves_network_untouched() {
        // The first parameter (3x4 weight) matches, the second does not:
        // nothing may be loaded, not even the matching prefix.
        let mut a = small_net(0);
        let mut bytes = Vec::new();
        save_weights(&mut a, &mut bytes).unwrap();

        let mut rng = litho_tensor::rng::StdRng::seed_from_u64(7);
        let mut b = Sequential::new();
        b.push(Linear::new(3, 4, &mut rng));
        b.push(Linear::new(4, 3, &mut rng));
        let x = Tensor::ones(&[1, 3]);
        let before = b.forward(&x, Phase::Eval).unwrap();
        assert!(load_weights(&mut b, bytes.as_slice()).is_err());
        assert_eq!(before, b.forward(&x, Phase::Eval).unwrap());
    }
}
