//! Radix-2 complex FFT, 1-D and 2-D.
//!
//! The partially coherent optical model in `litho-sim` computes aerial
//! images as sums of |mask ⊛ kernel|² terms; for 512×512 rasterised masks a
//! direct convolution is far too slow, so kernels are applied in the
//! frequency domain. The implementation is an iterative in-place
//! Cooley–Tukey transform with precomputed bit-reversal — no external FFT
//! dependency.

use crate::{Result, TensorError};

/// A complex number over `f64`.
///
/// Optics code runs in `f64`; only the final aerial image is narrowed to
/// `f32` for consumption by the NN stack. `repr(C)` pins the `(re, im)`
/// interleaved layout the AVX2 butterfly kernel views as f64 lanes.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from rectangular parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{iθ}`.
    pub fn from_angle(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude `re² + im²`.
    pub fn norm_sqr(&self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Complex conjugate.
    pub fn conj(&self) -> Complex {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftDirection {
    /// Forward DFT (negative exponent).
    Forward,
    /// Inverse DFT (positive exponent, normalised by `1/n`).
    Inverse,
}

fn check_pow2(n: usize) -> Result<()> {
    if n == 0 || !n.is_power_of_two() {
        return Err(TensorError::FftLengthNotPowerOfTwo(n));
    }
    Ok(())
}

/// In-place 1-D FFT of a power-of-two-length buffer.
///
/// The inverse transform includes the `1/n` normalisation, so
/// `fft_in_place(x, Forward)` followed by `fft_in_place(x, Inverse)`
/// reproduces the input.
///
/// # Errors
///
/// Returns [`TensorError::FftLengthNotPowerOfTwo`] for invalid lengths.
pub fn fft_in_place(data: &mut [Complex], direction: FftDirection) -> Result<()> {
    let n = data.len();
    check_pow2(n)?;
    if n == 1 {
        return Ok(());
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }

    let sign = match direction {
        FftDirection::Forward => -1.0,
        FftDirection::Inverse => 1.0,
    };

    // Level resolved once per transform: the scalar stage loop is the
    // reference; the AVX2 path runs two butterflies per 256-bit lane with
    // twiddles from the *same* `w = w * wlen` recurrence, so only the
    // butterfly arithmetic (fmaddsub vs mul/add) differs — covered by the
    // FFT epsilon tier.
    match crate::simd::active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only produced after CPUID confirmed AVX2+FMA.
        crate::simd::KernelLevel::Avx2 => unsafe { avx2::butterfly_stages(data, sign) },
        _ => butterfly_stages_scalar(data, sign),
    }

    if direction == FftDirection::Inverse {
        let inv = 1.0 / n as f64;
        for x in data.iter_mut() {
            *x = *x * inv;
        }
    }
    Ok(())
}

/// The scalar (reference) Cooley–Tukey stage loop, bit-identical to the
/// textbook formulation: per-block twiddles from the `w = w * wlen`
/// recurrence, butterflies as plain complex mul/add.
fn butterfly_stages_scalar(data: &mut [Complex], sign: f64) {
    let n = data.len();
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_angle(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::ONE;
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2+FMA butterfly stages: two complex f64 butterflies per 256-bit
    //! vector. Twiddles for each stage are materialised once (per-call
    //! scratch, reused across blocks) with the *same* sequential
    //! `w = w * wlen` fold as the scalar loop, so twiddle values are
    //! bit-identical across levels; only the butterfly product uses
    //! `fmaddsub`, which the FFT epsilon tier covers.
    use super::Complex;
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    thread_local! {
        /// Per-thread twiddle table scratch, grown on demand.
        static TWIDDLES: RefCell<Vec<Complex>> = const { RefCell::new(Vec::new()) };
    }

    /// # Safety
    ///
    /// Host must support AVX2 and FMA; `data.len()` must be a power of two.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn butterfly_stages(data: &mut [Complex], sign: f64) {
        TWIDDLES.with(|cell| {
            let mut tw = cell.borrow_mut();
            butterfly_stages_inner(data, sign, &mut tw);
        });
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn butterfly_stages_inner(data: &mut [Complex], sign: f64, tw: &mut Vec<Complex>) {
        let n = data.len();
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::from_angle(ang);
            if half < 2 {
                // len == 2: twiddle is exactly 1, plain add/sub pairs.
                let mut i = 0;
                while i < n {
                    let u = data[i];
                    let v = data[i + 1];
                    data[i] = u + v;
                    data[i + 1] = u - v;
                    i += 2;
                }
                len <<= 1;
                continue;
            }
            // Same recurrence the scalar loop runs per block, done once per
            // stage and shared by every block.
            tw.clear();
            let mut w = Complex::ONE;
            for _ in 0..half {
                tw.push(w);
                w = w * wlen;
            }
            let mut i = 0;
            while i < n {
                // `half` is a power of two >= 2, so pairs cover it exactly.
                let mut j = 0;
                while j < half {
                    let pu = data.as_mut_ptr().add(i + j).cast::<f64>();
                    let pv = data.as_mut_ptr().add(i + j + half).cast::<f64>();
                    let u = _mm256_loadu_pd(pu);
                    let v = _mm256_loadu_pd(pv);
                    let wv = _mm256_loadu_pd(tw.as_ptr().add(j).cast::<f64>());
                    // Complex multiply v * w on interleaved (re, im) lanes:
                    // even lanes w.re*v.re - w.im*v.im, odd w.re*v.im + w.im*v.re.
                    let wr = _mm256_movedup_pd(wv);
                    let wi = _mm256_permute_pd(wv, 0b1111);
                    let vs = _mm256_permute_pd(v, 0b0101);
                    let vw = _mm256_fmaddsub_pd(wr, v, _mm256_mul_pd(wi, vs));
                    _mm256_storeu_pd(pu, _mm256_add_pd(u, vw));
                    _mm256_storeu_pd(pv, _mm256_sub_pd(u, vw));
                    j += 2;
                }
                i += len;
            }
            len <<= 1;
        }
    }
}

/// In-place 2-D FFT of a row-major `h x w` buffer (both power-of-two).
///
/// # Errors
///
/// Returns [`TensorError::FftLengthNotPowerOfTwo`] if either extent is not
/// a power of two and [`TensorError::LengthMismatch`] if the buffer length
/// is not `h * w`.
pub fn fft2_in_place(
    data: &mut [Complex],
    h: usize,
    w: usize,
    direction: FftDirection,
) -> Result<()> {
    if data.len() != h * w {
        return Err(TensorError::LengthMismatch {
            expected: h * w,
            actual: data.len(),
        });
    }
    check_pow2(h)?;
    check_pow2(w)?;
    let _span = crate::profile::kernel_span(
        || format!("fft2[{h}x{w}]"),
        crate::profile::KernelCost::fft2(h, w),
    );

    // Rows.
    for row in data.chunks_mut(w) {
        fft_in_place(row, direction)?;
    }
    // Columns, via a scratch buffer.
    let mut col = vec![Complex::ZERO; h];
    for x in 0..w {
        for y in 0..h {
            col[y] = data[y * w + x];
        }
        fft_in_place(&mut col, direction)?;
        for y in 0..h {
            data[y * w + x] = col[y];
        }
    }
    Ok(())
}

/// Cyclic 2-D convolution of two real `h x w` images via the FFT.
///
/// The kernel is assumed to be centred at `(0, 0)` in wrap-around
/// convention (use [`shift_kernel_to_origin`] for a centred kernel).
///
/// # Errors
///
/// Propagates FFT validation errors.
pub fn convolve2_real(a: &[f64], b: &[f64], h: usize, w: usize) -> Result<Vec<f64>> {
    let mut fa: Vec<Complex> = a.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let mut fb: Vec<Complex> = b.iter().map(|&v| Complex::new(v, 0.0)).collect();
    fft2_in_place(&mut fa, h, w, FftDirection::Forward)?;
    fft2_in_place(&mut fb, h, w, FftDirection::Forward)?;
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x = *x * *y;
    }
    fft2_in_place(&mut fa, h, w, FftDirection::Inverse)?;
    Ok(fa.iter().map(|c| c.re).collect())
}

/// Rearranges a kernel whose centre sits at `(h/2, w/2)` into wrap-around
/// order with the centre at `(0, 0)` (an `ifftshift`).
pub fn shift_kernel_to_origin(kernel: &[f64], h: usize, w: usize) -> Vec<f64> {
    let mut out = vec![0.0; h * w];
    let cy = h / 2;
    let cx = w / 2;
    for y in 0..h {
        for x in 0..w {
            let sy = (y + cy) % h;
            let sx = (x + cx) % w;
            out[y * w + x] = kernel[sy * w + sx];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (t, &x) in input.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                    acc = acc + x * Complex::from_angle(ang);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut data = vec![Complex::ZERO; 6];
        assert!(fft_in_place(&mut data, FftDirection::Forward).is_err());
        let mut empty: Vec<Complex> = vec![];
        assert!(fft_in_place(&mut empty, FftDirection::Forward).is_err());
    }

    #[test]
    fn matches_naive_dft() {
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(1);
        let mut data: Vec<Complex> = (0..32)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let expect = naive_dft(&data);
        fft_in_place(&mut data, FftDirection::Forward).unwrap();
        for (got, want) in data.iter().zip(&expect) {
            assert!((got.re - want.re).abs() < 1e-9);
            assert!((got.im - want.im).abs() < 1e-9);
        }
    }

    #[test]
    fn forward_inverse_round_trip() {
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(2);
        let original: Vec<Complex> = (0..128)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut data = original.clone();
        fft_in_place(&mut data, FftDirection::Forward).unwrap();
        fft_in_place(&mut data, FftDirection::Inverse).unwrap();
        for (got, want) in data.iter().zip(&original) {
            assert!((got.re - want.re).abs() < 1e-10);
            assert!((got.im - want.im).abs() < 1e-10);
        }
    }

    #[test]
    fn fft2_round_trip() {
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(3);
        let (h, w) = (16, 8);
        let original: Vec<Complex> = (0..h * w)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        let mut data = original.clone();
        fft2_in_place(&mut data, h, w, FftDirection::Forward).unwrap();
        fft2_in_place(&mut data, h, w, FftDirection::Inverse).unwrap();
        for (got, want) in data.iter().zip(&original) {
            assert!((got.re - want.re).abs() < 1e-10);
        }
    }

    #[test]
    fn convolution_with_delta_is_identity() {
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(4);
        let (h, w) = (8, 8);
        let img: Vec<f64> = (0..h * w).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut delta = vec![0.0; h * w];
        delta[0] = 1.0; // delta at the origin in wrap-around convention
        let out = convolve2_real(&img, &delta, h, w).unwrap();
        for (got, want) in out.iter().zip(&img) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn convolution_matches_naive_cyclic() {
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(5);
        let (h, w) = (4, 8);
        let a: Vec<f64> = (0..h * w).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f64> = (0..h * w).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let fast = convolve2_real(&a, &b, h, w).unwrap();
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0;
                for dy in 0..h {
                    for dx in 0..w {
                        let sy = (y + h - dy) % h;
                        let sx = (x + w - dx) % w;
                        acc += a[sy * w + sx] * b[dy * w + dx];
                    }
                }
                assert!((fast[y * w + x] - acc).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn shift_kernel_moves_center_to_origin() {
        let (h, w) = (4, 4);
        let mut k = vec![0.0; h * w];
        k[(h / 2) * w + (w / 2)] = 1.0;
        let shifted = shift_kernel_to_origin(&k, h, w);
        assert_eq!(shifted[0], 1.0);
        assert_eq!(shifted.iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn avx2_level_within_tier_of_scalar() {
        use crate::rng::{Rng, SeedableRng};
        use crate::simd::{detect_level, with_level, KernelLevel};
        if detect_level() < KernelLevel::Avx2 {
            return;
        }
        let mut rng = crate::rng::StdRng::seed_from_u64(9);
        for n in [2usize, 4, 8, 64, 512] {
            let original: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            for dir in [FftDirection::Forward, FftDirection::Inverse] {
                let mut scalar = original.clone();
                let mut vectored = original.clone();
                with_level(KernelLevel::Scalar, || {
                    fft_in_place(&mut scalar, dir).unwrap();
                });
                with_level(KernelLevel::Avx2, || {
                    fft_in_place(&mut vectored, dir).unwrap();
                });
                for (s, v) in scalar.iter().zip(vectored.iter()) {
                    assert!((s.re - v.re).abs() <= 1e-12 + s.re.abs() * 1e-12, "n {n}");
                    assert!((s.im - v.im).abs() <= 1e-12 + s.im.abs() * 1e-12, "n {n}");
                }
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        use crate::rng::{Rng, SeedableRng};
        let mut rng = crate::rng::StdRng::seed_from_u64(6);
        let original: Vec<Complex> = (0..64)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let spatial_energy: f64 = original.iter().map(|c| c.norm_sqr()).sum();
        let mut data = original;
        fft_in_place(&mut data, FftDirection::Forward).unwrap();
        let freq_energy: f64 = data.iter().map(|c| c.norm_sqr()).sum::<f64>() / 64.0;
        assert!((spatial_energy - freq_energy).abs() < 1e-9);
    }
}
