//! Model-level golden digests: G, D and C at `NetConfig::scaled(16)`,
//! batch 2, fixed seeds, at both kernel levels.
//!
//! Each network runs one eval forward, one train forward and one backward
//! against a fixed upstream gradient. The outputs, the input gradient and
//! every parameter gradient are folded into FNV-1a digests of their f32
//! bit patterns and compared against constants. Any kernel change that
//! moves a single bit anywhere in the three networks fails here, so a
//! kernel rewrite that claims bit-identity must pass this file unchanged.
//!
//! On a mismatch the test prints the full table of observed digests.

use litho_nn::{Layer, Phase, Sequential};
use litho_tensor::rng::{Rng, SeedableRng, StdRng};
use litho_tensor::{detect_level, with_level, KernelLevel, Tensor};
use lithogan::NetConfig;

const BATCH: usize = 2;
const SIZE: usize = 16;

/// `[eval forward, train forward, input gradient, parameter gradients]`.
type Digests = [u64; 4];

#[rustfmt::skip]
const SCALAR: [(&str, Digests); 3] = [
    ("G", [0xd6b2cb52e5d1c0bc, 0x0db098e4e9e770fe, 0x729789e5cea4d54b, 0xac950da7483eef77]),
    ("D", [0x9301cda688d44fc4, 0x015b0d82f8c94da5, 0xef9ff5592cac79ce, 0xd83649788d7c95b0]),
    ("C", [0xe68901e27146f9e5, 0x240eb8542326d2db, 0xc3233c990420559d, 0xb00373c9fa475aeb]),
];

#[rustfmt::skip]
const AVX2: [(&str, Digests); 3] = [
    ("G", [0xb6274d684e944b26, 0xc2e69224fb29561f, 0x106cdedf20423034, 0x87d7ec1eb0113efe]),
    ("D", [0x8f5e33a80c3cb8fc, 0xd2c4edfb08979f89, 0xfb8432a9581625d5, 0x0483836beff8e337]),
    ("C", [0x8a062e1f18e40f67, 0xf760e992dc6a9a69, 0x9ff9eec2ab857248, 0xab22e56ad90b23dc]),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, values: &[f32]) {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

fn digest(values: &[f32]) -> u64 {
    let mut h = Fnv::new();
    h.feed(values);
    h.0
}

fn random(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = dims.iter().product();
    let data = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    Tensor::from_vec(data, dims).unwrap()
}

fn run_net(mut net: Sequential, in_channels: usize, seed: u64) -> Digests {
    let x = random(&[BATCH, in_channels, SIZE, SIZE], seed);
    let eval = net.forward(&x, Phase::Eval).unwrap();
    let y = net.forward(&x, Phase::Train).unwrap();
    let dy = random(y.dims(), seed + 1);
    net.zero_grad();
    let dx = net.backward(&dy).unwrap();
    let mut grads = Fnv::new();
    let mut params = 0;
    net.visit_params(&mut |p| {
        grads.feed(p.grad.as_slice());
        params += 1;
    });
    assert!(params > 0, "network has no parameters");
    [
        digest(eval.as_slice()),
        digest(y.as_slice()),
        digest(dx.as_slice()),
        grads.0,
    ]
}

fn observe() -> [(&'static str, Digests); 3] {
    let cfg = NetConfig::scaled(SIZE);
    let io = cfg.in_channels + cfg.out_channels;
    [
        ("G", run_net(cfg.build_generator(11), cfg.in_channels, 101)),
        ("D", run_net(cfg.build_discriminator(12), io, 102)),
        ("C", run_net(cfg.build_center_cnn(13), cfg.in_channels, 103)),
    ]
}

fn check(level: KernelLevel, want: &[(&str, Digests); 3]) {
    let got = with_level(level, observe);
    if &got != want {
        let mut table = String::new();
        for (net, d) in &got {
            table.push_str(&format!(
                "    (\"{net}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2], d[3]
            ));
        }
        panic!("{level:?} digests moved; observed:\n{table}");
    }
}

#[test]
fn scalar_digests_are_golden() {
    check(KernelLevel::Scalar, &SCALAR);
}

#[test]
fn avx2_digests_are_golden() {
    if detect_level() < KernelLevel::Avx2 {
        return; // host cannot run the AVX2 kernels
    }
    check(KernelLevel::Avx2, &AVX2);
}

#[test]
fn digests_do_not_depend_on_the_run() {
    // Guards the constants themselves: a digest that drifted between two
    // runs in one process (uninitialised scratch, racy reduction) would
    // make the golden comparison meaningless.
    let level = detect_level();
    assert_eq!(with_level(level, observe), with_level(level, observe));
}
